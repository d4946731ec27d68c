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
        "boot/curves.csv": "bc0f5ed67e3594674b0076b51df8989812ba2e8586804713053b2b0d135279fe",
        "boot_list/curves.csv": "050f4d283e9a3cd108cfe0ee2f404577ae78ecdc4d9c73c19e481c62f339863a",
        "exact/curves.csv": "e03aef0316fb6da51b4b25c8720c1aeeef5b35672e5c159e49c7fc4a6974eabd",
        "exact_list/curves.csv": "5a691d7374a7f746ea220c596719a6298fefb55fef5a9334873d3aafede2bf2e",
        "figures/curves_mlp.svg": "7868343741e08af6f03c4b8ca736f2ecfcc624bde94c0efbc08a7d41bcde4dbf",
        "figures/curves_quadratic.svg": "e359028946ab77a161d1cbbdeb355bbbad9c66cbca3e12edf2d5a61b20768f25",
        "figures/prob_best_ALL.svg": "98f1989c590a9f53e7d514946bebb8f5fa87969086b7130ae3538b6ec3a41eb4",
        "figures/prob_best_mlp.svg": "70b71ed20b4598789474395034721013d00cbaa0ff64b995dd67f443d76cb880",
        "figures/prob_best_quadratic.svg": "af0666d70bfeace97189c3053ed23538bdb5c9a2c671264a81040ad33cb985cb",
        "figures/relative_ALL.svg": "525acf3b94a11257007fddfd2ba11fbd8c07e82723f60d28b1c44f1f81602984",
        "figures/relative_mlp.svg": "03a203f4cd9c213499e1159eddfb9894b4b12fd31b1d3ca286874795c9204441",
        "figures/relative_quadratic.svg": "c33a361444d383fb018366ca2d06a5b1b5b175b907bba227561ac185b3b7abe2",
        "figures/time_curve_mlp.svg": "fc6a597a188b250ad6057221b2e5d82dc70316fc31b63f445a34d58dd4d93223",
        "figures/time_curve_quadratic.svg": "ff94673104ea07fd35faeeeb52a76bcff2afa27cd82208356957bc97a93e0030",
        "priors/prior_adam.json": "36a0c1bac13f6d5ac51d6878e6fdff2cf9e69c673f3a50bd9fff6d3d70ae7dfb",
        "priors/prior_sgd-lr.json": "0c6e8c7e0c149085d9d102fd1c0e27d6ee5d9eb3e617a51ea47563daa8bd626f",
        "runs/adam__mlp.jsonl": "ef084153e8411e91b4ae6fcb86e9ee313385b1ec6d05f5ee5e23ff309b3ed01f",
        "runs/adam__quadratic.jsonl": "1591d7f38c7b7d29b270f4fea290191c0e91e2d0635a6446f6e1fb15e837f7b8",
        "runs/sgd-lr__mlp.jsonl": "03b37d897b1bc6d76526de04a2dd04f77bf5344fd6ddee800648ce0d1efeb004",
        "runs/sgd-lr__quadratic.jsonl": "bcee00672f9e9fd231dd0e3f8242512ea681e994e93174d7531ae7d630cbd05f",
        "shootout/prob_best.csv": "b465f9fff1f31f436a184973ad77e261ba1f9e590b3a87b6d1219119396ff610",
        "shootout/time_curve.csv": "ff1d2d6af431d924fe4d00eea335bf73ebe961a4c75ffe0e9f7434957a8c6bf6",
        "summary/alpha.csv": "266c60eeaa98b58495521c9853cec63f52827ee59f306702f0a1dedc20ea7117",
        "summary/relative.csv": "dd35d55546a88fbebdf1aa1f2fd6e6f8571a5d79907266264bc8447829e5b2d6",
        "summary/tunability.csv": "b11567fd984d590f0383557b6e61cd01c0c0aa5b496e66a40e9e99d967913978",
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
