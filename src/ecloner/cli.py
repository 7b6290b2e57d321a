"""Command-line sweep over input squeezing for both cloning machines.

Writes one record per grid point with the entanglement criteria and clone
fidelities of both machines, all derived from the circuit outputs, plus a
threshold report locating where the whole-state machine's criteria cross 1.
Each run compiles the source and both machines once, as Laurent
polynomials in s = sqrt(v_s), and certifies them once: the source pure at
every v_s, each machine a Gaussian channel at the run's gain.  Every
analytic column evaluates that compiled form (``_Compiled``), with no gate
building or spectral validation per point; each threshold is a real root of
its polynomials, certified by one evaluation.
Optionally cross-checks the criteria with the sampling oracle, imported
only then: one run per point and machine, all sampled in one
``montecarlo.sample_criteria`` pass, the local machine's runs first.
"""

import argparse
import functools
import json
import os
import sys
from contextlib import nullcontext

import numpy as np

from .circuits import (
    CLONE_PAIRS,
    UNITY_GAIN,
    _certify_channel,
    _certify_source,
    _check_clone_symmetry,
    _compile,
    _evaluate,
    _gain_pair,
    _minors,
    _naming_v_s,
    _product,
    _source_rows,
    _widened,
)
from .criteria import squeezing_db
from .exceptions import DegenerateInputError
from .fidelity import VALUE_TOL
from .gaussian import _require

CSV_HEADER = "v_s,squeezing_db,i_local,i_global,eps_local,eps_global,f_local,f_global"
BISECTION_TOL = 1e-9
# Smallest --v-min accepted.  The compiled columns keep their digits far
# below it.  At unity gain, against exact closed forms: every column within
# 1.8e-15 relative from v_s = 1e-8 to 1; below that the local machine's stay
# there, while the global machine's lose to rounding residue in a combined
# row's 1/s coefficient, 1.6e-13 at 1e-10 and 1.5e-9 at 1e-12.  The 0.10.0
# engine, which formed the criteria from covariance entries of size 1/v_s,
# lost 1.1e-10 at 1e-3.  The floor stays where the public constructors,
# which still validate each state, accept every source (ROADMAP item 4).
V_MIN_FLOOR = 0.001
# Largest --gain accepted, a decade below the smallest gain measured to fail
# machine_covariances' validation: over 3000 log-spaced gains in [1e3, 1e5]
# and 8000 v_s in [1e-3, 1] (4000 log-spaced in [1e-3, 2e-3), 4000 in
# [2e-3, 1]), the first failure is at gain 9.48e4, where rounding at entries
# ~gain^2/v_s leaves the global machine's clone covariance at v_s = 1.008e-3
# without a Cholesky factor; from there up the failures are erratic (3e7
# fails at v_s = 0.01 already).  The cap keeps every printed column
# reproducible through machine_covariances.
MAX_GAIN = 9e3
# Smallest --gain accepted, a decade above every gain where a threshold fails
# certification (the compiled criterion must change sign within
# BISECTION_TOL / 2 of its root): 100 of 801 log-spaced gains in [1e-8, 1e-4]
# fail, all at or below 6.2e-7, each an epr_paradox root near v_s = 1, where
# the criterion's slope is of order the gain.  Over 1201 log-spaced gains in
# [MIN_GAIN, MAX_GAIN] every root is certified, within 4.5e-11 of its closed form.
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
    if not V_MIN_FLOOR <= args.v_min < 1.0:
        parser.error(f"--v-min must lie in [{V_MIN_FLOOR}, 1), got {args.v_min}")
    if args.mc_shots != 0:
        from .montecarlo import MIN_SHOTS

        if args.mc_shots < MIN_SHOTS:
            parser.error(f"--mc-shots must be 0 or at least {MIN_SHOTS}, got {args.mc_shots}")
    # checked with sampling off too, so a flag's validity never depends on another
    if args.seed < 0:
        parser.error(f"--seed must be a non-negative integer, got {args.seed}")
    if not MIN_GAIN <= args.gain <= MAX_GAIN:  # NaN fails too
        parser.error(f"--gain must lie in [{MIN_GAIN:g}, {MAX_GAIN:g}], got {args.gain}")


class _Compiled:
    """One machine fed by the EPR source at one gain, compiled and certified once.

    Every quantity the sweep reads is a set of Laurent coefficients in
    s = sqrt(v_s), formed once here; a grid costs one matrix product for all
    of them (``_sums``).  With F the output factor of source and
    machine (``rows``, from ``circuits._compile``), F_a and F_b clone 1's
    rows and S the source's:

    - ``variances``, ||F_k||^2 of each output k, a polynomial of
      nonnegative terms: the clone symmetry check and C_bb;
    - ``combined``, F_a - F_b and F_a + F_b: the inseparability's
      C_aa + C_bb - 2|C_ab| is the smaller squared norm, ||F_a - sigma F_b||^2
      with sigma the sign of C_ab;
    - ``conditional``, the 2 x 2 minors of (F_a, F_b): by the Lagrange
      identity their squares sum to C_aa C_bb - C_ab^2, the epr_paradox's
      conditional variance times C_bb;
    - ``joint``, the minors of ([S_a | F_a], [S_b | F_b]): by Cauchy-Binet
      their squares sum to det(A + B) of the source and the clone pair, so
      the fidelity needs no per-point purity check.

    Each value is a sum of squares, and the global machine's s and 1/s
    cancel as exponents, so every column is exact to rounding.  The
    thresholds come from the same sets (``candidate_roots``).
    """

    def __init__(self, machine, gain, source):
        gx, gp = _gain_pair(gain)
        self.machine, self.gain = machine, gain
        self._conditioning = CLONE_PAIRS[machine][0][1]  # clone 1's mode conditioned on
        with np.errstate(over="ignore", invalid="ignore"):
            self.rows = _compile(machine, gx, gp, source)
            # at v_s = 1 the source is a 50/50, symplectic: the machine's certificate
            _certify_channel(_evaluate(self.rows, 1.0), machine, gain)
            n = max(len(self.rows), len(source)) // 2
            pair = _widened(self.rows, n)[:, :, list(CLONE_PAIRS[machine][0])]
            (f_a, f_b), (s_a, s_b) = np.moveaxis(pair, 2, 0), np.moveaxis(_widened(source, n), 2, 0)
            self.variances = _product(self.rows, self.rows).sum(axis=-1)
            self.combined = np.stack([f_a - f_b, f_a + f_b], axis=-2)
            self.conditional = _minors(f_a, f_b)
            self.joint = _minors(np.concatenate([s_a, f_a], -1), np.concatenate([s_b, f_b], -1))

    @functools.cached_property
    def _table(self):
        """``_tabulate`` of every set: 4 combined rows, 2 conditional and 2
        joint determinants, then the variances."""
        return _tabulate((self.combined, self.conditional, self.joint, self.variances[..., None]))

    def candidate_roots(self):
        """Unchecked candidate v_s of inseparability = 1 and of epr_paradox = 1:
        the roots of c_x c_p - 4 for each of the 4 pairs of signs sigma (c the
        squared norm of F_a - sigma F_b; being nonnegative, the product of the
        minima is the least of the 4 products), and of cond_x cond_p - C_bb,x C_bb,p.
        """
        norms = _product(self.combined, self.combined).sum(axis=-1)  # powers, quadrature, sign
        products = _product(norms[:, 0, :, None], norms[:, 1, None, :])
        products[len(products) // 2] -= 4.0
        cond = _product(self.conditional, self.conditional).sum(axis=-1)
        var = self.variances[..., self._conditioning]
        cond, var = _product(cond[:, 0], cond[:, 1]), _product(var[:, 0], var[:, 1])
        n = max(len(cond), len(var)) // 2
        return _positive_roots(products), _positive_roots(_widened(cond, n) - _widened(var, n))

    def columns(self, v):
        """(inseparability, epr_paradox, fidelity) of clone 1 at the v_s ``v``,
        each stacked like v.  Checked per point, each error naming the v_s
        and the gain: the float range, clone symmetry, a positive
        conditioning variance and a fidelity within [0, 1]."""
        sums = _sums(self._table, v)
        var = sums[..., 8:].reshape(np.shape(v) + (2, 4))
        where = _naming_v_s(v, self.gain)
        _require(np.isfinite(sums).all(axis=-1), "the clones leave the float range", where=where)
        _check_clone_symmetry(var, *CLONE_PAIRS[self.machine], where)
        message = "the conditioning variance of the epr_paradox is not positive"
        positive = (var[..., self._conditioning] > 0).all(axis=-1)
        _require(positive, message, where=where, error=DegenerateInputError)
        c = np.minimum(sums[..., 0:4:2], sums[..., 1:4:2])  # per quadrature: F_a -/+ F_b
        ratio = sums[..., 4:6] / var[..., self._conditioning]  # x and p, over C_bb
        inseparability, epr_paradox = 0.5 * np.sqrt(c.prod(axis=-1)), ratio.prod(axis=-1)
        fidelity = 4.0 / np.sqrt(sums[..., 6] * sums[..., 7])
        inside = (fidelity >= 0.0) & (fidelity <= 1.0 + VALUE_TOL)
        _require(inside, "fidelity {value} escaped [0, 1]", fidelity, where, RuntimeError)
        return inseparability, epr_paradox, fidelity


def _tabulate(sets):
    """Laurent coefficient sets as one (entries, powers) matrix, less its
    entries of zeros and the powers of s no entry has, for ``_sums``.

    Returns the matrix, the exponents of its powers, where each sum of
    squares starts among its entries, and how many leading entries are
    squared: each set's last axis is summed, x before p, and the last set,
    the variances, is already squared.
    """
    n = max(len(coef) for coef in sets) // 2
    flat = [_widened(coef, n).reshape(2 * n + 1, -1) for coef in sets]
    ends = np.cumsum([f.shape[1] for f in flat])
    starts = np.concatenate(
        [np.arange(e - f.shape[1], e, c.shape[-1]) for e, f, c in zip(ends, flat, sets)]
    )
    coef = np.concatenate(flat, axis=1)
    keep = coef.any(axis=0)
    keep[starts] = True  # every sum keeps a column, if only one of zeros
    used = np.flatnonzero(coef.any(axis=1))
    entries = np.ascontiguousarray(coef[np.ix_(used, keep)].T)
    return entries, used - float(n), (np.cumsum(keep) - 1)[starts], np.sum(keep[: ends[-2]])


def _sums(table, v):
    """The sums of squares of a ``_tabulate`` table at the v_s ``v``, stacked
    like v: one matrix product with the powers of s = sqrt(v), then each
    sum adds whole rows, one per entry, over every point at once."""
    entries, exponents, starts, squared = table
    s = np.sqrt(np.ravel(v))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        values = entries @ s ** exponents[:, None]  # rows: entries
        values[:squared] **= 2  # in place: a second array this size costs more
        sums = np.add.reduceat(values, starts, axis=0)
    return sums.T.reshape(np.shape(v) + (len(starts),))


def _compile_run(gain):
    """Both machines at ``gain``, compiled and certified once for a run, on
    one source certified once."""
    source = _source_rows()
    _certify_source(source, f"local and global machines at gain {gain!r}")
    return {name: _Compiled(name, gain, source) for name in CLONE_PAIRS}


def _analytic_records(grid, machines):
    """The analytic columns in CSV_HEADER order, from the run's compiled
    ``machines`` (``_compile_run``), each column one stacked evaluation."""
    table = {"v_s": grid.tolist(), "squeezing_db": [squeezing_db(v_s) for v_s in grid]}
    for name, machine in machines.items():
        for key, column in zip(("i", "eps", "f"), machine.columns(grid)):
            table[f"{key}_{name}"] = column.tolist()
    return {key: table[key] for key in CSV_HEADER.split(",")}


def _sample_records(table, gain, mc_shots, master_seed):
    """Append the mc columns of one seeded oracle run per (point, machine), all in one pass."""
    from . import montecarlo

    names = ("mc_i_{}", "mc_i_{}_err", "mc_eps_{}", "mc_eps_{}_err")
    machines, v_s = ("local", "global"), table["v_s"]
    seeds = [montecarlo.spawn_seeds(master_seed, len(v_s), m) for m in range(2)]
    runs = [(machines[m], x, seed) for m in range(2) for x, seed in zip(v_s, seeds[m])]
    values = montecarlo.sample_criteria(runs, mc_shots, gain)
    for machine, one_machine in zip(machines, np.split(values, 2, axis=1)):
        for name, column in zip(names, one_machine.tolist()):
            table[name.format(machine)] = column


def _bisect_crossing(lo, hi, gain, machine=None):
    """Roots of inseparability = 1 and epr_paradox = 1 on [lo, hi], found together.

    Returns ``(inseparability_root, epr_paradox_root)``, None where the
    global machine's compiled criterion does not change sign between ``lo``
    and ``hi``.  ``machine`` is the run's compiled global machine, compiled
    here when None.  ``_find_roots`` certifies its ``candidate_roots`` with
    its ``columns``.  Over 1201 log-spaced gains in [MIN_GAIN, MAX_GAIN],
    every root from gain 0.05 up lies within 1.27e-14 of its closed form.
    """
    if machine is None:
        machine = _compile_run(gain)["global"]

    def engine(v):  # both criteria minus 1, leading axis: criterion
        return np.stack(machine.columns(v)[:2]) - 1.0

    return _find_roots(lo, hi, gain, machine.candidate_roots(), engine)


def _find_roots(lo, hi, gain, candidates, engine):
    """The roots on [lo, hi] of two criteria, from each one's candidate v_s.

    ``engine(v)`` gives both criteria minus 1 (leading axis: criterion).  In
    one evaluation, a criterion that changes sign between lo and hi takes
    its smallest candidate, within BISECTION_TOL / 2 of [lo, hi] and clipped
    to it, where it also changes sign within BISECTION_TOL / 2; with none, a
    RuntimeError names the gain and the smallest candidate (nan for none).
    Elsewhere its root is None.
    """
    half = BISECTION_TOL / 2
    kept = [np.sort(np.clip(c[(c >= lo - half) & (c <= hi + half)], lo, hi)) for c in candidates]
    points = np.concatenate(kept)  # columns of f: lo, hi, the points - half, the points + half
    f = engine(np.clip(np.concatenate([[lo, hi], points - half, points + half]), lo, hi))
    crosses = f[:, 0] * f[:, 1] <= 0
    below, above = np.split(f[:, 2:], 2, axis=1)
    roots, ends = [], np.cumsum([len(k) for k in kept])
    for c, (name, k, end) in enumerate(zip(("inseparability", "epr_paradox"), kept, ends)):
        mine = slice(end - len(k), end)
        certified = k[below[c, mine] * above[c, mine] <= 0]
        if crosses[c] and not certified.size:
            root = float(k[0]) if k.size else float("nan")
            raise RuntimeError(
                f"{name} root {root!r} at gain {gain!r} is not certified: "
                f"the engine's {name} - 1 keeps its sign within {half:g} of it"
            )
        roots.append(float(certified[0]) if crosses[c] else None)
    return tuple(roots)


def _positive_roots(coef):
    """v_s = s^2 at each positive real part s of the roots of the Laurent
    polynomials ``coef`` (powers, ...), by one ``eigvals`` of their companion
    matrices, each shifted to the top power (adding roots at s = 0).  Complex
    roots count too: certification, not an imaginary-part bound, decides."""
    flat = coef.reshape(len(coef), -1).T
    used = np.flatnonzero(flat.any(axis=0))
    flat, width = flat[:, used[0] : used[-1] + 1], used[-1] - used[0] + 1  # ascending powers
    shift = np.argmax(flat[:, ::-1] != 0, axis=1)  # the zeros above each leading coefficient
    flat = flat[np.arange(len(flat))[:, None], (np.arange(width) - shift[:, None]) % width]
    companion = np.repeat(np.eye(width - 1, k=-1)[None], len(flat), axis=0)
    companion[:, 0] = -flat[:, -2::-1] / flat[:, -1:]
    s = np.linalg.eigvals(companion).real.ravel()
    return s[s > 0] ** 2


def _threshold_lines(machine):
    """The threshold block of the compiled global ``machine``; the literature
    values and the note on them hold at unity gain only."""
    gain = machine.gain
    unity = gain == UNITY_GAIN
    method = f"compiled Laurent form, certified to {BISECTION_TOL:g}"
    lines = [f"thresholds for the global machine ({method})"]
    for root, label, literature in zip(
        _bisect_crossing(V_MIN_FLOOR, 1.0, gain, machine),
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
        machines = _compile_run(args.gain)
        table = _analytic_records(grid, machines)
        if args.mc_shots:
            _sample_records(table, args.gain, args.mc_shots, args.seed)
        threshold_lines = _threshold_lines(machines["global"])
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
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
