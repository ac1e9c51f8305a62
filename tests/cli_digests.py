"""One sha256 per CLI output file, for comparing two trees byte for byte.

    python tests/cli_digests.py TREE > digests.txt
    python tests/cli_digests.py TREE_A TREE_B

With one tree it imports ``kfmetric`` from ``TREE/src`` and, in a fresh
temporary directory, writes two fixtures with ``synth``: its defaults (40
identities, noise 0.05) and 80 identities at noise 0.6. For each fixture and
seeds 0-2 it runs

* ``train`` for kfda, np-mfml and sm-mfml: stdout, ``model.json`` and ``train.log``;
* ``evaluate`` for all four methods: stdout and ``cmc.csv``;
* ``cv``: stdout and ``cv.csv``;
* ``sweep --p-values 1,3,5`` for kfda, np-mfml and sm-mfml: stdout and ``sweep.csv``;

and prints ``<fixture>/<seed>/<command>-<method>/<file> <sha256>``, one line
per file. It also prints ``help/<command>/stdout <sha256>`` for each subcommand's
``--help`` at 80 columns, so the flag surface is compared too. Output paths are relative to the temporary directory, so stdout
names the same paths on every tree and two runs compare with one ``diff``.
With two trees it runs the one-tree form on each in a fresh interpreter and
prints ``N digests identical``, or every differing line, and then exits 1.
BLAS runs on one thread unless the environment already says otherwise.
Warnings go nowhere; stderr is not digested.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
# argparse wraps --help to the terminal width
os.environ["COLUMNS"] = "80"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import difflib  # noqa: E402
import io  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

FIXTURES = {"default": [], "noisy80": ["--identities", "80", "--noise", "0.6"]}
SEEDS = (0, 1, 2)
LEARNED = ("kfda", "np-mfml", "sm-mfml")
# command -> (methods, files it writes besides stdout, extra flags)
RUNS = {
    "train": (LEARNED, ("model.json", "train.log"), []),
    "evaluate": (("euclidean",) + LEARNED, ("cmc.csv",), []),
    "cv": (("kfda",), ("cv.csv",), []),
    "sweep": (LEARNED, ("sweep.csv",), ["--p-values", "1,3,5"]),
}
HELP = ("synth", *RUNS)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(main) -> list[str]:
    """Run every command of RUNS in the current directory; one 'name sha256' line per output."""
    lines = []

    def run(argv) -> bytes:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = main(argv)
            except SystemExit as exc:  # --help prints, then exits 0
                code = exc.code
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        return out.getvalue().encode()

    lines += [f"help/{command}/stdout {_sha(run([command, '--help']))}" for command in HELP]
    for fixture, flags in FIXTURES.items():
        features = f"{fixture}.csv"
        run(["synth", "--out", features, *flags])
        for seed in SEEDS:
            for command, (methods, files, extra) in RUNS.items():
                for method in methods:
                    name = f"{fixture}/{seed}/{command}-{method}"
                    argv = [command, "--features", features, "--method", method,
                            "--seed", str(seed), "--out", name, *extra]
                    lines.append(f"{name}/stdout {_sha(run(argv))}")
                    lines += [f"{name}/{f} {_sha((Path(name) / f).read_bytes())}" for f in files]
    return lines


def tree_digests(tree) -> list[str]:
    """The one-tree output for ``tree``, run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, tree], capture_output=True, text=True, check=False
    )
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: digest run exited {proc.returncode}\n{proc.stderr}")
    return proc.stdout.splitlines()


if __name__ == "__main__":
    if len(sys.argv) == 3:
        before, after = (tree_digests(tree) for tree in sys.argv[1:])
        diff = list(difflib.unified_diff(before, after, *sys.argv[1:], n=0, lineterm=""))
        print("\n".join(diff) if diff else f"{len(before)} digests identical")
        sys.exit(1 if diff else 0)
    if len(sys.argv) != 2:
        raise SystemExit("usage: python tests/cli_digests.py TREE [TREE_B]")
    sys.path.insert(0, str(Path(sys.argv[1]).resolve() / "src"))
    from kfmetric.cli import main

    with tempfile.TemporaryDirectory() as work, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        os.chdir(work)
        print("\n".join(digests(main)))
