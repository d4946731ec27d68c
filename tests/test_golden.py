"""Golden digest: every subcommand's output bytes, pinned per numpy version.

One small search config runs through the whole pipeline in-process.  The
sha256 of every file it writes is compared against the values checked in
below, keyed by numpy version, since numpy's random streams and
floating-point kernels are only bit-stable within one version.  A refactor
must leave these digests unchanged; a deliberate numeric change re-pins
them and says so in CHANGES.md.  On a numpy version with no pinned digests
the test fails and prints the digests to pin.
"""

import hashlib
from pathlib import Path

import numpy as np

from tunebench.cli import main

CONFIG = """\
[search]
optimizers = sgd-lr, adam
tasks = quadratic, mlp
trials = 8
seed = 3

[task.quadratic]
dim = 6
max_epochs = 3
train_size = 200

[task.mlp]
n = 120
max_epochs = 3
"""

GOLDEN = {
    "2.4.6": {
        "boot/curves.csv": "61cafdab835063a1d3c8d71bc3fd8e495837fe6015fbcb4c8a2c87119fd4846f",
        "boot_list/curves.csv": "be47ffab6e06e7553b1ed0a0bfa70027d613349820f6ded7c23d228a8705eee5",
        "exact/curves.csv": "91509a047d8bbf7ca88b40e875b74991bb4fb129b065f5e5fc63ec3552f3ffa2",
        "exact_list/curves.csv": "94ba2f6cc6e476606c099af7a58fcc35e167219919acfa4bddffab6eb13f2ac6",
        "figures/curves_mlp.svg": "7868343741e08af6f03c4b8ca736f2ecfcc624bde94c0efbc08a7d41bcde4dbf",
        "figures/curves_quadratic.svg": "44807fe6f5fa1f2b39ac693b8822d70c814002e11ab65b365d85b990454dd37f",
        "figures/prob_best_ALL.svg": "98f1989c590a9f53e7d514946bebb8f5fa87969086b7130ae3538b6ec3a41eb4",
        "figures/prob_best_mlp.svg": "70b71ed20b4598789474395034721013d00cbaa0ff64b995dd67f443d76cb880",
        "figures/prob_best_quadratic.svg": "af0666d70bfeace97189c3053ed23538bdb5c9a2c671264a81040ad33cb985cb",
        "figures/relative_ALL.svg": "28dfbf3673412a86c1e73447560aa18c0c5723044de21b158c0f423be8d8ec14",
        "figures/relative_mlp.svg": "03a203f4cd9c213499e1159eddfb9894b4b12fd31b1d3ca286874795c9204441",
        "figures/relative_quadratic.svg": "42ea900ce863781a21e3b32e16fe563131850b0a0f86c0ca20ff067ddde1eb23",
        "figures/time_curve_mlp.svg": "fc6a597a188b250ad6057221b2e5d82dc70316fc31b63f445a34d58dd4d93223",
        "figures/time_curve_quadratic.svg": "ea357d43430ebd38a39084ff5c683983086fb5036d8e9737b4df5c0fc0211108",
        "priors/prior_adam.json": "36a0c1bac13f6d5ac51d6878e6fdff2cf9e69c673f3a50bd9fff6d3d70ae7dfb",
        "priors/prior_sgd-lr.json": "0c6e8c7e0c149085d9d102fd1c0e27d6ee5d9eb3e617a51ea47563daa8bd626f",
        "runs/adam__mlp.jsonl": "ef084153e8411e91b4ae6fcb86e9ee313385b1ec6d05f5ee5e23ff309b3ed01f",
        "runs/adam__quadratic.jsonl": "7cd14703e310ff5439bc47e41293b4c57b912189dd1322f6d2e6cb858f803690",
        "runs/sgd-lr__mlp.jsonl": "03b37d897b1bc6d76526de04a2dd04f77bf5344fd6ddee800648ce0d1efeb004",
        "runs/sgd-lr__quadratic.jsonl": "7c9aed01853bab2b81858ef3307d15d03f7610a3db22b4d4bd0bcfeb8f126f0c",
        "shootout/prob_best.csv": "b465f9fff1f31f436a184973ad77e261ba1f9e590b3a87b6d1219119396ff610",
        "shootout/time_curve.csv": "af4a37ba7bc112ad41815582fd573a84ea3ac825dcf784c7b21dcfd8e9c82460",
        "summary/alpha.csv": "4f6846c88703f4c6bc9ab5bce09241f4f1ae76745488240d49e00176aff6c823",
        "summary/relative.csv": "29c7687fc536a90088e5fec5361b6f540a4f0425d9a0342e7da5411ba2ac8fb9",
        "summary/tunability.csv": "01f168532c96cb44e6644862a681c735820d77c993a7ef46b55b85b95963fbf5",
    },
}


def run_pipeline(root: Path) -> dict[str, str]:
    cfg = root / "search.ini"
    cfg.write_text(CONFIG)
    out = root / "out"
    assert main(["generate", str(cfg), "--out", str(out / "runs")]) == 0
    libs = sorted(str(p) for p in (out / "runs").glob("*.jsonl"))
    commands = [
        ["analyze", *libs, "--out", str(out / "exact")],
        ["analyze", *libs, "--budget", "1,3,5,20", "--out", str(out / "exact_list")],
        ["analyze", *libs, "--bootstrap", "20", "--seed", "2", "--out", str(out / "boot")],
        ["analyze", *libs, "--bootstrap", "20", "--budget", "1,3,5,20",
         "--out", str(out / "boot_list")],
        ["summarize", str(out / "exact" / "curves.csv"), "--out", str(out / "summary")],
        ["prob-best", *libs, "--repetitions", "50", "--out", str(out / "shootout")],
        ["time-curve", *libs, "--intervals", "10", "--repetitions", "50",
         "--out", str(out / "shootout")],
        ["plot", str(out / "exact" / "curves.csv"), str(out / "shootout" / "prob_best.csv"),
         str(out / "shootout" / "time_curve.csv"), str(out / "summary" / "relative.csv"),
         "--out", str(out / "figures")],
        ["calibrate", *libs, "--retention", "1.0", "--out", str(out / "priors")],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def test_golden_digests(tmp_path, capsys):
    digests = run_pipeline(tmp_path)
    capsys.readouterr()
    version = np.__version__
    pinned = GOLDEN.get(version)
    listing = "\n".join(f'        "{name}": "{digest}",' for name, digest in digests.items())
    assert pinned is not None, (
        f"no golden digests pinned for numpy {version}; pin these:\n{listing}"
    )
    changed = sorted(name for name in digests.keys() | pinned.keys()
                     if digests.get(name) != pinned.get(name))
    assert not changed, f"outputs differ from the numpy {version} golden digests: {changed}"
