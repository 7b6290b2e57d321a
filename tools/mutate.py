"""Operator mutation testing of the package against the tier-1 suite.

Each mutant flips one arithmetic or comparison operator of a source file
(``+`` to ``-``, ``<`` to ``<=``, ``==`` to ``!=``, ...).  Every mutant is
written into a copy of the repository under a temporary directory, never
into the working tree, and the tier-1 suite runs there with ``-x`` in a
subprocess.  A mutant is killed when the suite fails, survives when it
passes, and hangs when it outlives the timeout, three times the unmutated
suite's own run; its whole process group is then killed.

Run from the repository root::

    python tools/mutate.py --files src/ecloner/gaussian.py src/ecloner/fidelity.py
    python tools/mutate.py --sample 20 --seed 1

It prints the killed, survived and hung counts, then each survivor and hung
mutant as file:line and the operator flip.  It is not a CI step: a full run
over the package takes tens of minutes.
"""

import argparse
import ast
import bisect
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# operator node type -> (its token, the token of its mutant)
FLIPS = {
    ast.Add: ("+", "-"),
    ast.Sub: ("-", "+"),
    ast.Mult: ("*", "/"),
    ast.Div: ("/", "*"),
    ast.FloorDiv: ("//", "*"),
    ast.Mod: ("%", "//"),
    ast.Pow: ("**", "*"),
    ast.MatMult: ("@", "*"),
    ast.Lt: ("<", "<="),
    ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="),
    ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="),
    ast.NotEq: ("!=", "=="),
}
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out", "*.egg-info"
)


def _operator_spans(node):
    """(operator type, start, end) of each operator of ``node``: the source
    positions between which its token lies."""
    if isinstance(node, ast.BinOp):
        return [(type(node.op), node.left, node.right)]
    if isinstance(node, ast.AugAssign):
        return [(type(node.op), node.target, node.value)]
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        return [(type(op), a, b) for op, a, b in zip(node.ops, operands, operands[1:])]
    return []


def mutation_sites(path):
    """(line, byte offset, token, mutant token) of every flippable operator
    of a file, f-string fields included."""
    source = path.read_bytes()
    starts = [0]
    for text in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(text))
    sites = []
    for node in ast.walk(ast.parse(source)):
        for op, before, after in _operator_spans(node):
            if op not in FLIPS:
                continue
            token, mutant = FLIPS[op]
            if isinstance(node, ast.AugAssign):
                token, mutant = token + "=", mutant + "="
            # between the operands lie only the operator, brackets and blanks
            low = starts[before.end_lineno - 1] + before.end_col_offset
            at = source.index(token.encode(), low, starts[after.lineno - 1] + after.col_offset)
            sites.append((bisect.bisect_right(starts, at), at, token, mutant))
    return sorted(sites)


def mutated(source, at, token, mutant):
    """``source`` (bytes) with the operator ``token`` at byte ``at`` flipped."""
    assert source[at : at + len(token)] == token.encode(), (at, token)
    return source[:at] + mutant.encode() + source[at + len(token) :]


def run_suite(copy, timeout):
    """Tier-1 with -x in ``copy``: its return code, or None when it timed out."""
    # no bytecode: a mutant of the same size and second would reuse a stale .pyc
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    proc = subprocess.Popen(
        [*command, "--continue-on-collection-errors"],
        cwd=copy,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--files",
        nargs="+",
        type=Path,
        default=sorted((ROOT / "src" / "ecloner").glob("*.py")),
        help="source files to mutate (default: every module of the package)",
    )
    parser.add_argument("--sample", type=int, help="mutate only N sites drawn at random")
    parser.add_argument("--seed", type=int, default=0, help="seed of --sample's draw")
    args = parser.parse_args(argv)

    files = [path.resolve().relative_to(ROOT) for path in args.files]
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        mutants = [(path, *site) for path in files for site in mutation_sites(copy / path)]
        if args.sample is not None:
            mutants = random.Random(args.seed).sample(mutants, min(args.sample, len(mutants)))
            mutants.sort()
        start = time.perf_counter()
        if run_suite(copy, None) != 0:
            raise SystemExit("mutate: the unmutated suite fails; nothing to measure")
        timeout = 3 * (time.perf_counter() - start)
        print(f"{len(mutants)} mutants; unmutated suite {timeout / 3:.1f} s, timeout {timeout:.0f} s")

        outcomes = {"killed": [], "survived": [], "hung": []}
        for i, (path, line, at, token, mutant) in enumerate(mutants, 1):
            target = copy / path
            original = target.read_bytes()
            target.write_bytes(mutated(original, at, token, mutant))
            try:
                code = run_suite(copy, timeout)
            finally:
                target.write_bytes(original)
            outcome = "hung" if code is None else "survived" if code == 0 else "killed"
            label = f"{path}:{line}  {token} -> {mutant}"
            outcomes[outcome].append(label)
            print(f"[{i}/{len(mutants)}] {outcome:8} {label}", flush=True)

    print(" ".join(f"{name} {len(labels)}" for name, labels in outcomes.items()))
    for name in ("survived", "hung"):
        for label in outcomes[name]:
            print(f"{name}: {label}")


if __name__ == "__main__":
    main()
