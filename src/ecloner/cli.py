"""Command-line sweep over input squeezing for both cloning machines.

Writes one record per grid point with the entanglement criteria and clone
fidelities of both machines, all derived from the circuit outputs, plus a
threshold report locating where the whole-state machine's criteria cross 1,
by a bracketed secant search.  Optionally cross-checks the criteria
with the sampling oracle: one run per point and machine, all sampled in one
``montecarlo.sample_criteria`` pass, the local machine's runs first.
"""

import argparse
import json
import math
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
# The threshold search's first points, and its probes about a bracket's regula-falsi point
# x_f: x_f and x_f +- BISECTION_TOL * (1/256, 1/2, 1e3, 1e6)
_SEARCH_GRID = 9
_PROBE_OFFSETS = [0.0] + [s * BISECTION_TOL * k for k in (1 / 256, 0.5, 1e3, 1e6) for s in (-1, 1)]
V_MIN_FLOOR = 0.001
# Largest --gain accepted, a decade below the smallest gain measured to fail:
# over 3000 log-spaced gains in [1e3, 1e5] and 8000 v_s in [1e-3, 1] (4000
# of them in [1e-3, 2e-3]), the first failure is at gain 9.4e4, where
# rounding at entries ~gain^2/v_s leaves the global machine's clone
# covariance at v_s = 1.003e-3 without a Cholesky factor; from there up
# the failures are erratic (3e7 fails at v_s = 0.01 already).
MAX_GAIN = 9e3
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
            f"the clones and break the fixed-fidelity records); at most {MAX_GAIN:g}"
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
    if not 0 < args.gain <= MAX_GAIN:  # NaN fails too
        parser.error(f"--gain must lie in (0, {MAX_GAIN:g}], got {args.gain}")


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


def _fan(a, f_a, b, f_b):
    """A step's sorted points in the bracket (a, b): its midpoint and the probes in it."""
    # regula falsi; a bracket's ends hold equal values only where both are roots
    x_f = a + (f_a / (f_a - f_b) if f_a != f_b else 0.5) * (b - a)
    return sorted([0.5 * (a + b)] + [x for d in _PROBE_OFFSETS if a < (x := x_f + d) < b])


def _sign_change(points):
    """The first neighbours among sorted ``(x, f)`` points across which f changes sign."""
    return next((p, q) for p, q in zip(points, points[1:]) if p[1] * q[1] <= 0)


def _bisect_crossing(lo, hi, gain):
    """Roots of inseparability = 1 and epr_paradox = 1 on [lo, hi], searched together.

    Returns ``(inseparability_root, epr_paradox_root)``, None where the
    criterion does not change sign.  Each root is the midpoint of a bracket
    no wider than ``BISECTION_TOL``, found by bracketed interpolation (Brent,
    *Algorithms for Minimization without Derivatives*, 1973) on many points
    per stacked evaluation of the global machine: first a grid, then per
    step every open bracket's ``_fan``.  Its midpoint keeps a bisection's
    worst case; its probes about the regula-falsi point x_f end the search
    once x_f is within ``BISECTION_TOL / 2`` of the root.  A bracket's next
    is the first sign change among its points, which depend on it alone.
    A search still open after ``n_max`` steps, a bisection's count plus one,
    raises a RuntimeError naming the gain and the bracket.
    """

    def excess(v_s):  # rows: criterion; columns: points
        _, blocks = _machine_blocks("global", v_s, gain)
        pair = _pair_blocks(blocks, CLONE_PAIRS["global"][0])
        return (np.stack([_inseparability(pair), _epr_paradox(pair)]) - 1.0).tolist()

    x = np.linspace(lo, hi, _SEARCH_GRID).tolist()
    # each crossing criterion's bracket, as its (x, f) ends
    brackets = {c: _sign_change([*zip(x, f)]) for c, f in enumerate(excess(x)) if f[0] * f[-1] <= 0}
    n_max = math.ceil(math.log2((hi - lo) / BISECTION_TOL)) + 1
    for step in range(n_max + 1):
        active = [c for c, (a, b) in brackets.items() if b[0] - a[0] > BISECTION_TOL]
        if not active:
            break
        if step == n_max:
            raise RuntimeError(
                f"threshold search on [{lo!r}, {hi!r}] at gain {gain!r} "
                f"did not end in {n_max} steps"
            )
        fans = [_fan(*brackets[c][0], *brackets[c][1]) for c in active]
        values, start = excess([v for fan in fans for v in fan]), 0
        for c, fan in zip(active, fans):
            f = values[c][start : start + len(fan)]
            brackets[c] = _sign_change([brackets[c][0], *zip(fan, f), brackets[c][1]])
            start += len(fan)
    roots = {c: 0.5 * (a[0] + b[0]) for c, (a, b) in brackets.items()}
    return roots.get(0), roots.get(1)


def _threshold_lines(gain):
    """The threshold block; the literature values and the note on them hold at unity gain only."""
    unity = gain == UNITY_GAIN
    lines = [f"thresholds for the global machine (bracketed secant search to {BISECTION_TOL:g})"]
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
    for row in zip(*table.values()):
        stream.write(",".join(map(_fmt, row)) + "\n")
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
