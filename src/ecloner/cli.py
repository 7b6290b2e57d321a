"""Command-line sweep over input squeezing for both cloning machines.

Writes one record per grid point with the entanglement criteria and clone
fidelities of both machines, all derived from the circuit outputs, plus a
threshold report locating where the whole-state machine's criteria cross 1,
on a 3-point Laurent fit of its clone blocks, each root certified by the
engine.  Optionally cross-checks the criteria with the sampling oracle: one
run per point and machine, all sampled in one ``montecarlo.sample_criteria``
pass, the local machine's runs first.
"""

import argparse
import json
import os
import sys
from contextlib import nullcontext

import numpy as np

from . import montecarlo
from .circuits import CLONE_PAIRS, UNITY_GAIN, _machine_blocks, _source_blocks
from .criteria import _epr_paradox, _inseparability, _pair_blocks, squeezing_db
from .fidelity import _fidelity

CSV_HEADER = "v_s,squeezing_db,i_local,i_global,eps_local,eps_global,f_local,f_global"
BISECTION_TOL = 1e-9
# The threshold search: a fit of the global machine's clone blocks at
# _FIT_POINTS, then _REFINEMENTS cuts of each bracket on a _GRID-point grid
_FIT_POINTS = (0.25, 0.5, 1.0)
_GRID = 65
_REFINEMENTS = 5
V_MIN_FLOOR = 0.001
# Largest --gain accepted, a decade below the smallest gain measured to fail:
# over 3000 log-spaced gains in [1e3, 1e5] and 8000 v_s in [1e-3, 1] (4000
# of them in [1e-3, 2e-3]), the first failure is at gain 9.4e4, where
# rounding at entries ~gain^2/v_s leaves the global machine's clone
# covariance at v_s = 1.003e-3 without a Cholesky factor; from there up
# the failures are erratic (3e7 fails at v_s = 0.01 already).
MAX_GAIN = 9e3
# Smallest --gain accepted, a decade above the largest gain measured to
# fail: over 30001 log-spaced gains in [1e-6, 1e-4] (and 501 in [1e-9,
# 1e-4]) the last failure is at 1.37e-6.  There the epr_paradox root nears
# v_s = 1, where the criterion's slope is of order the gain, so rounding
# moves the engine's sign change more than BISECTION_TOL / 2 from the
# fitted root and its certification raises.  Over 3001 log-spaced gains in
# [1e-5, 1e-2] every root lies within 8.3e-11 of its closed form.
MIN_GAIN = 2e-5
# 128 + SIGPIPE: the status a shell reports for a writer killed by SIGPIPE
EXIT_BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 1 (not 2) for invalid flags."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser():
    parser = _Parser(
        prog="ecloner",
        description=(
            "Sweep the input squeezing variance and report entanglement "
            "criteria and fidelities for the local and global cloning machines."
        ),
    )
    parser.add_argument("--points", type=int, default=200, help="grid points (default 200)")
    parser.add_argument(
        "--v-min", type=float, default=0.01, help="smallest squeezing variance (default 0.01)"
    )
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format (default csv)"
    )
    parser.add_argument("--output", default=None, help="output path (default stdout)")
    parser.add_argument(
        "--mc-shots",
        type=int,
        default=0,
        help="sampling-oracle shots per grid point and machine (0 disables)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed for the oracle")
    parser.add_argument(
        "--gain",
        type=float,
        default=UNITY_GAIN,
        help=(
            "expert: cloner feedforward gain (default sqrt(2), the unity-gain "
            "setting that copies clone amplitudes exactly; other values bias "
            f"the clones and break the fixed-fidelity records); in [{MIN_GAIN:g}, {MAX_GAIN:g}]"
        ),
    )
    return parser


def _validate(parser, args):
    if args.points < 2:
        parser.error(f"--points must be at least 2, got {args.points}")
    # the global machine's criteria are computed from covariance entries of
    # size 1/v_s, so their relative error grows as 1/v_s^2 (2e-9 at 1e-4);
    # the spectral validation rejects some states below 1e-4
    if not V_MIN_FLOOR <= args.v_min < 1.0:
        parser.error(f"--v-min must lie in [{V_MIN_FLOOR}, 1), got {args.v_min}")
    if args.mc_shots != 0 and args.mc_shots < montecarlo.MIN_SHOTS:
        parser.error(
            f"--mc-shots must be 0 or at least {montecarlo.MIN_SHOTS}, got {args.mc_shots}"
        )
    # checked with sampling off too, so a flag's validity never depends on another
    if args.seed < 0:
        parser.error(f"--seed must be a non-negative integer, got {args.seed}")
    if not MIN_GAIN <= args.gain <= MAX_GAIN:  # NaN fails too
        parser.error(f"--gain must lie in [{MIN_GAIN:g}, {MAX_GAIN:g}], got {args.gain}")


def _analytic_records(grid, gain):
    """The analytic columns in CSV_HEADER order, each from one stacked evaluation
    on the engine's x and p blocks."""
    table = {"v_s": grid.tolist(), "squeezing_db": [squeezing_db(v_s) for v_s in grid]}
    source = _source_blocks(grid)
    clones = []
    for name in ("local", "global"):
        _, blocks = _machine_blocks(name, grid, gain, source)
        # clone 1's blocks: its reduced covariance, and the criteria's input
        pair = _pair_blocks(blocks, CLONE_PAIRS[name][0])
        table[f"i_{name}"] = _inseparability(pair).tolist()
        table[f"eps_{name}"] = _epr_paradox(pair).tolist()
        clones.append(pair)
    # both machines share the source: one call checks its purity once
    fidelities = _fidelity(source, np.stack(clones), None, split=True).value.tolist()
    table["f_local"], table["f_global"] = fidelities
    return {key: table[key] for key in CSV_HEADER.split(",")}


def _sample_records(table, gain, mc_shots, master_seed):
    """Append the mc columns of one seeded oracle run per (point, machine), all in one pass."""
    names = ("mc_i_{}", "mc_i_{}_err", "mc_eps_{}", "mc_eps_{}_err")
    machines, v_s = ("local", "global"), table["v_s"]
    seeds = [montecarlo.spawn_seeds(master_seed, len(v_s), m) for m in range(2)]
    runs = [(machines[m], x, seed) for m in range(2) for x, seed in zip(v_s, seeds[m])]
    values = montecarlo.sample_criteria(runs, mc_shots, gain)
    for machine, one_machine in zip(machines, np.split(values, 2, axis=1)):
        for name, column in zip(names, one_machine.tolist()):
            table[name.format(machine)] = column


def _bisect_crossing(lo, hi, gain):
    """Roots of inseparability = 1 and epr_paradox = 1 on [lo, hi], found together.

    Returns ``(inseparability_root, epr_paradox_root)``, None where the
    engine's criterion does not change sign between ``lo`` and ``hi``.  The
    global machine's clone blocks are exactly A v_s + B + C / v_s at any
    gain, so one engine evaluation at ``_FIT_POINTS`` fixes them.  On that
    model, ``_REFINEMENTS`` times, each criterion's bracket shrinks to the
    first cell of a ``_GRID``-point grid with a sign change (the first cell
    where none has one); one regula-falsi step then gives the root.  A
    second engine evaluation certifies it: a crossing criterion must change
    sign within ``BISECTION_TOL / 2`` of the root (clipped to [lo, hi]), or
    a RuntimeError names the gain and the root.  Over 400 log-spaced gains
    in [0.05, 40] each root lies within 4.3e-13 of its closed form.  At tiny
    gains the epr_paradox root nears v_s = 1, where the engine's own
    criterion loses digits: the miss is 5.4e-10 at gain 1e-6 and 3.1e-8 at
    1e-8 (4.7e-10 and 3.5e-8 for the secant search this replaced), and at
    some gains below 1.4e-6 a root is not certified; the CLI takes no gain
    below ``MIN_GAIN``.
    """

    def clone_pair(v_s):
        return _pair_blocks(_machine_blocks("global", v_s, gain)[1], CLONE_PAIRS["global"][0])

    def excess(pair):  # leading axis: criterion
        return np.stack([_inseparability(pair), _epr_paradox(pair)]) - 1.0

    def laurent(v):
        return np.stack([v, np.ones_like(v), 1.0 / v], axis=-1)

    fit = np.array(_FIT_POINTS)
    coef = np.linalg.solve(laurent(fit), clone_pair(fit).reshape(len(fit), -1))
    rows, a, b = [0, 1], np.full(2, float(lo)), np.full(2, float(hi))
    with np.errstate(divide="ignore", invalid="ignore"):  # a model has no value at 0
        for _ in range(_REFINEMENTS):
            x = np.linspace(a, b, _GRID, axis=-1)  # rows: criterion
            f = excess((laurent(x) @ coef).reshape(x.shape + (2, 2, 2)))[rows, rows]
            k = np.argmax(f[:, :-1] * f[:, 1:] <= 0, axis=-1)
            a, b, f_a, f_b = x[rows, k], x[rows, k + 1], f[rows, k], f[rows, k + 1]
        # regula falsi; a NaN step (no value at a, or both ends 0) keeps a
        roots = a + np.fmin(np.fmax(f_a / (f_a - f_b), 0.0), 1.0) * (b - a)
    half = BISECTION_TOL / 2  # columns of f: lo, hi, then the roots - half, the roots + half
    f = excess(clone_pair(np.clip(np.concatenate([[lo, hi], roots - half, roots + half]), lo, hi)))
    crosses = f[:, 0] * f[:, 1] <= 0
    for c, name in enumerate(("inseparability", "epr_paradox")):
        if crosses[c] and f[c, 2 + c] * f[c, 4 + c] > 0:
            raise RuntimeError(
                f"{name} root {float(roots[c])!r} at gain {gain!r} is not certified: "
                f"the engine's {name} - 1 keeps its sign within {half:g} of it"
            )
    return tuple(float(r) if crossing else None for r, crossing in zip(roots, crosses))


def _threshold_lines(gain):
    """The threshold block; the literature values and the note on them hold at unity gain only."""
    unity = gain == UNITY_GAIN
    method = f"3-point Laurent fit, certified to {BISECTION_TOL:g}"
    lines = [f"thresholds for the global machine ({method})"]
    for root, label, literature in zip(
        _bisect_crossing(V_MIN_FLOOR, 1.0, gain),
        ("inseparability", "epr_paradox"),
        ("; literature: 3 dB", "; literature: 5.7 dB"),
    ):
        if root is None:
            lines.append(
                f"{label} = 1: no crossing for v_s in [{V_MIN_FLOOR:g}, 1] at gain {gain:.12g}"
            )
        else:
            line = f"{label} = 1 at v_s = {root:.9f} ({squeezing_db(root):.4f} dB)"
            lines.append(line + literature if unity else line)
    if unity:
        lines.append(
            "note: the v_s = 0.67 sometimes quoted for the epr_paradox crossing is "
            "inconsistent with 5.7 dB (0.67 is 1.74 dB); the analytic root is "
            "v_s = 2 - sqrt(3) = 0.2679"
        )
    return lines


def _fmt(value):
    return f"{value:.12g}"


def _write_csv(stream, table, threshold_lines):
    stream.write(",".join(table) + "\n")
    row_format = ",".join(["%.12g"] * len(table)) + "\n"  # _fmt's format, one row at a time
    for row in zip(*table.values()):
        stream.write(row_format % row)
    for line in threshold_lines:
        stream.write(f"# {line}\n")


def _write_json(stream, table):
    payload = [{key: float(_fmt(v)) for key, v in zip(table, row)} for row in zip(*table.values())]
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def run_sweep(args, stdout=None, stderr=None):
    """Evaluate the grid and emit records; returns the process exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr

    # Opened before any evaluation, so a bad path fails at once.
    try:
        sink = open(args.output, "w") if args.output else nullcontext(stdout)
    except OSError as exc:
        print(f"ecloner: cannot write {args.output}: {exc}", file=stderr)
        return 2
    with sink as stream:
        grid = np.geomspace(args.v_min, 1.0, args.points)
        grid[-1] = 1.0
        table = _analytic_records(grid, args.gain)
        if args.mc_shots:
            _sample_records(table, args.gain, args.mc_shots, args.seed)
        threshold_lines = _threshold_lines(args.gain)
        if args.format == "csv":
            _write_csv(stream, table, threshold_lines)
        else:
            _write_json(stream, table)
            for line in threshold_lines:
                print(f"# {line}", file=stderr)
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        code = run_sweep(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
    except BrokenPipeError:
        # the reader stopped early, as `| head` does; drop the rest of the output
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
