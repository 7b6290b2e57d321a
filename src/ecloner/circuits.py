"""EPR source and the linear, local, and global cloning circuits.

The linear cloning machine splits its input on a 50/50 beamsplitter, reads
both quadratures of one output with a dual homodyne (a second beamsplitter
with a fresh vacuum), feeds the readouts forward with gain g onto the kept
beam, and splits the result once more to deliver two clones.  At unity gain
g = sqrt(2) each clone carries the input's mean exactly plus one unit of
vacuum noise.

The local machine runs one such cloner per arm of a two-mode input.  The
global machine first disentangles the input on a 50/50 beamsplitter,
un-squeezes each branch into a coherent state, clones, re-squeezes by the
same amount, and re-entangles the clones pairwise on 50/50 beamsplitters.

Each circuit is written once, as one chain of gates acting on the rows of a
compiled Heisenberg stack K of shape (powers, 2, modes, cols): the output
quadratures as combinations of the input quadratures followed by those of
the vacuum ancillas, each entry a Laurent polynomial in s = sqrt(v_s) whose
coefficients of s^-3 ... s^3 run along the leading axis.  Axis -3 is the
quadrature, x then p, because no gate of these circuits mixes x with p: a
50/50 beamsplitter acts alike on both and on every coefficient, the
feedforward adds the n2 readout to x and the n1 readout to p with constant
gains, and a squeezer of factor s^k moves its mode's x row k powers up and
its p row k powers down, exactly.  A chain is compiled once and evaluated
at any stack of v_s by one matrix product (``_evaluate``); the global
machine's s and 1/s then cancel as exponents, not as rounded numbers.

``_compile`` gives a machine's rows over its two inputs and six ancillas,
or, fed the source's compiled rows (``_source_rows``), the output factor F
of source and machine together: the clones' covariance is F F^T, whose
variances are sums of squares.  ``_product`` and ``_minors`` combine
compiled rows as polynomials, so that differences cancel as coefficients
before any v_s is put in.  ``gaussian._propagate(K, cov)`` = K [cov, 0; 0,
1] K^T takes a covariance through evaluated rows, and the mean goes to
K[..., :d] mean.

Two certificates replace per-point validation where a whole family of
states is built: ``_certify_source`` checks S_x S_p^T = I as a Laurent
identity, so the source is pure at every v_s, and ``_certify_channel``
checks N + i Omega - i T Omega T^T >= 0 for a machine at one gain, so it
maps every valid state to a valid state (Holevo & Werner, PRA 63, 032312,
2001).  The public constructors still validate every state they return.

A CLI run compiles the source and both machines once and certifies them
once (``_compile_run``): the source pure at every v_s, each machine a
Gaussian channel at the run's gain.  Every analytic column evaluates that
compiled form (``_Compiled``), with no gate building or spectral
validation per point, and each threshold is a real root of its
polynomials (``_Compiled.candidate_roots``), for the CLI to certify by one
evaluation.

The compiled chains, their evaluated rows and ``_propagate`` carry x and p
blocks.  States are validated and returned interleaved, in (x1, p1, ...)
order: ``machine_covariances`` and ``epr_source`` interleave their blocks
before the checks, and the gate-object API and the CloneSets interleave K
itself.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateInputError, UncertaintyViolation
from .fidelity import VALUE_TOL
from .gaussian import (
    PURE_REL_TOL,
    GaussianState,
    _beamsplitter_matrix,
    _check_covariance,
    _check_v_s,
    _integer_at_least,
    _interleave,
    _map_state,
    _propagate,
    _quadrature_blocks,
    _quadratures,
    _require,
)

# Feedforward gain that cancels the first beamsplitter's vacuum noise and
# makes the whole circuit unity-gain on the signal.
UNITY_GAIN = math.sqrt(2.0)

VARIANCE_MATCH_TOL = 1e-12
# Relative slack between a v_s argument and the v_s inferred from its input.
# Inference recovers v_s to within 5.9e-16 relative (about 3 eps), measured
# on the first 2000 epr_source outputs that build with v_s log-uniform in
# [1e-300, 1] and on 1000 sources built gate by gate with v_s in [1e-5, 1];
# this allows 45 eps.
V_S_MATCH_RTOL = 1e-14

# (clone1, clone2) mode pairs of each machine's 4-mode output.
CLONE_PAIRS = {"local": ((0, 3), (2, 1)), "global": ((0, 1), (2, 3))}
# A machine's Heisenberg stack runs over 8 modes: the input pair, then the
# (tap, readout, clone B) ancillas of the arm-1 and the arm-2 cloner.  The
# four outputs end on modes 0, 1, 4 and 7.
_MACHINE_MODES = 8
_OUTPUT_MODES = [0, 1, 4, 7]
# The 50/50 beamsplitter on one quadrature of a mode pair.
_BALANCED = _beamsplitter_matrix(0.5)[::2, ::2]
# A compiled stack carries s^-3 ... s^3: the source's squeezers reach s^+-1,
# and a machine's squeezers before and after its cloners two powers more.
_TOP_POWER = 3


@dataclass(frozen=True)
class CloneSet:
    """Labeled 4-mode output of an entanglement cloning machine.

    ``clone1`` and ``clone2`` are ordered, disjoint mode pairs covering all
    four modes; each pair is one cloned copy of the two-mode input.  ``v_s``
    records the squeezing variance of the input source (NaN when unknown).
    """

    state: GaussianState
    clone1: tuple
    clone2: tuple
    machine: str
    v_s: float

    def __post_init__(self):
        clone1 = tuple(_integer_at_least("clone mode", m, 0) for m in self.clone1)
        clone2 = tuple(_integer_at_least("clone mode", m, 0) for m in self.clone2)
        if self.state.num_modes != 4:
            raise ValueError(f"clone set needs a 4-mode state, got {self.state.num_modes}")
        if sorted(clone1 + clone2) != [0, 1, 2, 3]:
            raise ValueError(f"clone pairs {clone1}, {clone2} must partition the 4 modes")
        if self.machine not in CLONE_PAIRS:
            raise ValueError(f"unknown machine tag {self.machine!r}")
        blocks = _quadrature_blocks(self.state.cov)
        _check_clone_symmetry(np.diagonal(blocks, axis1=-2, axis2=-1), clone1, clone2)
        object.__setattr__(self, "clone1", clone1)
        object.__setattr__(self, "clone2", clone2)
        object.__setattr__(self, "v_s", float(self.v_s))


def _check_clone_symmetry(var, clone1, clone2, where=None):
    """Matching modes of the two clones must carry equal x and p variances.

    ``var`` holds the (..., 2, 4) x and p variances of the four outputs;
    ``where`` names the first offending stack item by its flat index, as in
    ``_check_covariance``.
    """
    diff = np.abs(var[..., list(clone1)] - var[..., list(clone2)])
    message = "clones are not symmetric: single-mode variances differ"
    _require(np.max(diff, axis=(-2, -1)) <= VARIANCE_MATCH_TOL, message, where=where)


def _naming_v_s(v, gain=None):
    """The ``where`` of ``_require`` on a stack over the v_s ``v``: "v_s = ...",
    then the gain unless it is None."""

    def where(i):
        at = f"v_s = {float(np.ravel(v)[i])!r}"
        return at if gain is None else f"{at}, gain = {gain!r}"

    return where


def clone_state(clone_set, which=1):
    """Reduced two-mode state of one clone, modes ordered as its pair."""
    if which not in (1, 2):
        raise ValueError(f"clone index must be 1 or 2, got {which}")
    pair = clone_set.clone1 if which == 1 else clone_set.clone2
    q = _quadratures(pair)
    return GaussianState(clone_set.state.mean[q], clone_set.state.cov[np.ix_(q, q)])


def _identity(modes):
    """The compiled stack (powers, 2, modes, modes) of a circuit with no gates."""
    rows = np.zeros((2 * _TOP_POWER + 1, 2, modes, modes))
    rows[_TOP_POWER] = np.eye(modes)
    return rows


def _beamsplit(rows, i, j):
    """A 50/50 beamsplitter on modes i < j of a Heisenberg stack.

    The two modes' rows are taken as one strided view, not a gathered copy.
    """
    pair = rows[..., i : j + 1 : j - i, :]
    pair[...] = _BALANCED @ pair


def _squeeze(rows, mode, k):
    """A squeezer of factor s^k on one mode of a compiled stack: its x row's
    coefficients move k powers up, its p row's k powers down."""
    for q, shift in ((0, k), (1, -k)):
        row = rows[:, q, mode]
        rows[:, q, mode] = np.concatenate([row[-shift:], row[:-shift]])


def _evaluate(coef, v):
    """Laurent coefficients (2m + 1, ...) of s^-m ... s^m at the v_s ``v``:
    shape(v) + the entry shape, by one matrix product with the powers of
    s = sqrt(v).  A power whose coefficients are all 0 is left out, so that
    its s^k never meets a 0 as inf * 0."""
    flat = coef.reshape(len(coef), -1)
    used = np.flatnonzero(flat.any(axis=1))
    s = np.sqrt(np.asarray(v, dtype=float))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        powers = s[..., None] ** (used - len(coef) // 2.0)
        return (powers @ flat[used]).reshape(s.shape + coef.shape[1:])


def _trimmed(coef):
    """Laurent coefficients (2m + 1, ...) cut to the narrowest range s^-n ... s^n
    that holds every nonzero one."""
    m = len(coef) // 2
    used = np.flatnonzero(coef.reshape(len(coef), -1).any(axis=1)) - m
    n = int(np.max(np.abs(used), initial=0))
    return coef[m - n : m + n + 1]


def _widened(coef, n):
    """Laurent coefficients (2m + 1, ...) padded with zeros to s^-n ... s^n, n >= m."""
    out = np.zeros((2 * n + 1,) + coef.shape[1:])
    m = len(coef) // 2
    out[n - m : n + m + 1] = coef
    return out


def _product(a, b):
    """The entrywise product of Laurent coefficient arrays a (2m + 1, ...) and
    b (2n + 1, ...), broadcast: (2(m + n) + 1, ...)."""
    out = np.zeros((len(a) + len(b) - 1,) + np.broadcast(a[0], b[0]).shape)
    for k, term in enumerate(a):
        out[k : k + len(b)] += term * b
    return out


def _minors(a, b):
    """The 2 x 2 minors a_i b_j - a_j b_i, i < j, of Laurent rows a and b
    (powers, ..., n): (2 powers - 1, ..., n (n - 1) / 2), cancelling as
    coefficients, not as rounded values."""
    outer = _product(a[..., :, None], b[..., None, :])
    i, j = np.array(list(itertools.combinations(range(a.shape[-1]), 2))).T
    return outer[..., i, j] - outer[..., j, i]


def _source_rows():
    """epr_source's compiled stack (powers, 2, 2, 2): mode 0 squeezed in x,
    mode 1 in p, then a 50/50; the columns are its two vacuum inputs."""
    rows = _identity(2)
    _squeeze(rows, 0, 1)
    _squeeze(rows, 1, -1)
    _beamsplit(rows, 0, 1)
    return _trimmed(rows)


def _source_blocks(v):
    """x and p blocks (..., 2, 2, 2) of epr_source's covariance at the validated
    v_s ``v``, stacked like v; a ValueError names the first v_s where the
    source, whose entries grow as 1/v_s, leaves the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = _propagate(_evaluate(_source_rows(), v), np.eye(2))  # both inputs are vacuum
    finite = np.isfinite(blocks).all(axis=(-3, -2, -1))
    _require(finite, "the source leaves the float range", where=_naming_v_s(v))
    return blocks


def _certify_source(rows, where):
    """Check that compiled source rows S make a pure state at every v_s.

    S_x S_p^T = I as a Laurent identity makes cov_x cov_p = I, every
    symplectic eigenvalue 1, whatever s is.  Each coefficient of the product
    may miss its exact value by the rounding of its terms, PURE_REL_TOL
    times the sum of their magnitudes, as ``gaussian._pure_rounding`` allows
    a pure state's products; past that an UncertaintyViolation carries
    ``where``, ahead of its message.
    """
    sx, sp = rows[:, 0, :, None, :], rows[:, 1, None, :, :]
    deviation = _product(sx, sp).sum(axis=-1)
    deviation[len(deviation) // 2] -= np.eye(2)
    allowed = PURE_REL_TOL * _product(np.abs(sx), np.abs(sp)).sum(axis=-1)
    worst = np.max(np.abs(deviation) - allowed)
    if not worst <= 0.0:
        raise UncertaintyViolation(
            f"{where}: the source is not pure: S_x S_p^T misses I by "
            f"{np.max(np.abs(deviation)):.3g} beyond its rounding"
        )


def epr_source(v_s):
    """Two-mode entangled state from orthogonally squeezed beams on a 50/50.

    Mode 0 is squeezed in x (variance v_s <= 1), mode 1 in p, and the pair
    interferes on a balanced beamsplitter.  Each output arm has variance
    (v_s + 1/v_s)/2 in both quadratures; the x quadratures carry correlation
    (v_s - 1/v_s)/2 and the p quadratures the opposite sign.  The state is
    pure for every v_s (``_certify_source`` proves it of the compiled
    chain); random displacements are applied separately via
    :func:`ecloner.gaussian.displace`.  The covariance is the compiled
    source rows S evaluated at v_s, S S^T, and validated as a state.

    Below v_s = 1e-4 that validation rejects some v_s
    (``UncertaintyViolation``), erratically.  On 400-point log grids the
    uncertainty bound rejects none of [1e-4, 1e-3], 91 of [1e-5, 1e-4] (the
    largest 5.85e-5), 241 of [1e-6, 1e-5] and 264 of [1e-7, 1e-6]; 5e-6
    passes while 1e-5 fails.  From about 1.3e-8 down, rounding mostly
    leaves the covariance without a Cholesky factor, and it is rejected as
    not positive definite: 3333 of 4000 log-spaced v_s in [1e-300, 1], while
    21 fail the bound and 646 build.  ROADMAP item 4 holds the v_s floor,
    to be taken from the measured error curve.
    """
    v_s = float(v_s)
    return GaussianState(np.zeros(4), _interleave(_source_blocks(_check_v_s(v_s))))


def _gain_pair(gain):
    gains = np.asarray(gain, dtype=float)
    if gains.shape == ():
        gains = np.array([gains, gains])
    if gains.shape != (2,):
        raise ValueError(f"gain must be a scalar or an (x, p) pair, got shape {gains.shape}")
    gx, gp = float(gains[0]), float(gains[1])
    if not (math.isfinite(gx) and math.isfinite(gp)):
        raise ValueError(f"gain must be finite, got ({gx}, {gp})")
    return gx, gp


def _clone_rows(rows, mode, ancillas, gx, gp):
    """The linear cloning circuit on the rows of a Heisenberg stack.

    ``ancillas`` = (n1, n2, n3) are three fresh vacuum modes: a 50/50 split
    taps ``mode`` onto n1, a second 50/50 with n2 makes the dual-homodyne
    readout, the readouts are fed forward onto the kept beam with gain
    (gx, gp), and a last 50/50 split leaves clone A on ``mode`` and clone B
    on n3.  n1 and n2 are the measured modes.
    """
    n1, n2, n3 = ancillas
    # mode -> kept beam (in + N1)/sqrt(2), n1 -> tapped beam (in - N1)/sqrt(2)
    _beamsplit(rows, mode, n1)
    # dual homodyne: n2 slot's x and n1 slot's p are the two readouts
    _beamsplit(rows, n1, n2)
    rows[..., 0, mode, :] += gx * rows[..., 0, n2, :]
    rows[..., 1, mode, :] += gp * rows[..., 1, n1, :]
    _beamsplit(rows, mode, n3)


def linear_cloner(state, mode, gain=UNITY_GAIN):
    """Clone one mode of a state; the two clones replace the input mode.

    Clone A lands at ``mode``; clone B is appended as the last mode.  The
    circuit is evaluated in the Heisenberg picture over the input plus three
    vacuum ancillas: a 50/50 split, a dual-homodyne readout of the tapped
    beam, feedforward of the readout with gain (g_x, g_p) onto the kept
    beam, and a final 50/50 split.  The two measured ancilla modes are
    discarded.  ``gain`` may be a scalar or an (x, p) pair; unity gain
    sqrt(2) gives clones with the input mean and variance + 1.  A ValueError
    names the gain where the clones' moments leave the float range.
    """
    n = state.num_modes
    mode = _integer_at_least("mode", mode, 0)
    if mode >= n:
        raise ValueError(f"mode {mode} out of range for {n} modes")
    gx, gp = _gain_pair(gain)

    rows = np.array([np.eye(n + 3)] * 2)
    with np.errstate(over="ignore", invalid="ignore"):
        _clone_rows(rows, mode, (n, n + 1, n + 2), gx, gp)
    # The feedforward row is not symplectic, so the moments are only
    # meaningful once the consumed measurement modes are dropped.
    keep = [i for i in range(n + 3) if i not in (n, n + 1)]
    k = _interleave(rows[:, keep])
    return _map_state(k, state, lambda: f"gain = {gain!r}: the clones leave the float range")


def _compile(machine, gx, gp, source=None):
    """A machine's compiled stack (powers, 2, 4, 8); rows are its outputs in
    CloneSet order, columns 2-7 its six vacuum ancillas.

    Columns 0-1 are its two input modes or, given the source's compiled rows
    (``_source_rows``), the source's two vacuum inputs: the machine's chain
    then runs on the source's, and the rows are the output factor F of the
    whole circuit, whose clones have covariance F F^T.  The local machine
    does not depend on s.
    """
    if machine not in CLONE_PAIRS:
        raise ValueError(f"unknown machine {machine!r}")
    rows = _identity(_MACHINE_MODES)
    if source is not None:
        rows[:, :, :2, :2] = _widened(source, _TOP_POWER)
    if machine == "global":
        _beamsplit(rows, 0, 1)  # branches: x-squeezed, p-squeezed
        _squeeze(rows, 0, -1)
        _squeeze(rows, 1, 1)
    _clone_rows(rows, 0, (2, 3, 4), gx, gp)  # (1A, arm 2, 1B) on modes 0, 1, 4
    _clone_rows(rows, 1, (5, 6, 7), gx, gp)  # (1A, 2A, 1B, 2B) on modes 0, 1, 4, 7
    if machine == "global":
        for mode, k in ((0, 1), (4, 1), (1, -1), (7, -1)):
            _squeeze(rows, mode, k)
        _beamsplit(rows, 0, 1)
        _beamsplit(rows, 4, 7)
    return _trimmed(rows[:, :, _OUTPUT_MODES])


def _machine_rows(machine, v, gx, gp):
    """The (..., 2, 4, 8) Heisenberg stack of a machine at the v_s ``v``,
    stacked like v: ``_compile``'s rows, evaluated."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _evaluate(_compile(machine, gx, gp), v)


def _certify_channel(rows, machine, gain):
    """Check that a machine at ``gain`` is a Gaussian channel at every v_s.

    ``rows`` (2, 4, 8) are the machine's Heisenberg rows at v_s = 1, where
    every squeezer is the identity, over its two inputs or over the source's
    two vacua (the source at v_s = 1 is a 50/50, symplectic); T =
    rows[..., :2] maps the input and the ancillas add N = A A^T, A =
    rows[..., 2:].  The map is a channel exactly
    when N + i Omega - i T Omega T^T >= 0.  No gate mixes x with p, so with
    D = I - T_x T_p^T that Hermitian matrix is unitarily equivalent to the
    real H = [[N_x, D], [D^T, N_p]].  At any other v_s the machine is this
    one between symplectic squeezers and beamsplitters, which keep the
    condition, so one check serves every v_s.  The machines add the least
    noise allowed, so H is singular; its Cholesky factor must exist once H
    is shifted by n PURE_REL_TOL max|H|, n = 8: an eigenvalue moves by at
    most n times the rounding of an entry, a sum of products of chain
    coefficients bounded as ``gaussian._pure_rounding`` bounds a pure
    state's.  Past that an UncertaintyViolation names the machine and the
    gain.  Rows past the float range are left to the callers' range checks.
    """
    t, a = rows[..., :2], rows[..., 2:]
    h = np.empty((8, 8))
    h[:4, :4], h[4:, 4:] = a @ np.swapaxes(a, -1, -2)
    h[:4, 4:] = np.eye(4) - t[0] @ t[1].T
    h[4:, :4] = h[:4, 4:].T
    if not np.isfinite(h).all():
        return
    shift = len(h) * PURE_REL_TOL * np.max(np.abs(h))
    try:
        np.linalg.cholesky(h + shift * np.eye(len(h)))
    except np.linalg.LinAlgError:
        raise UncertaintyViolation(
            f"{machine} machine at gain {gain!r} is not a Gaussian channel: "
            "N + i Omega - i T Omega T^T is not positive semidefinite"
        ) from None


class _Compiled:
    """One machine fed by the EPR source at one gain, compiled and certified once.

    Every quantity the sweep reads is a set of Laurent coefficients in
    s = sqrt(v_s), formed once here; a grid costs one matrix product for all
    of them (``_sums``).  With F the output factor of source and
    machine (``rows``, from ``_compile``), F_a and F_b clone 1's
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

def _compile_run(gain):
    """Both machines at ``gain``, compiled and certified once for a run, on
    one source certified once."""
    source = _source_rows()
    _certify_source(source, f"local and global machines at gain {gain!r}")
    return {name: _Compiled(name, gain, source) for name in CLONE_PAIRS}



def machine_covariances(machine, v_s, gain=UNITY_GAIN):
    """Input and output covariances of a machine fed by ``epr_source(v_s)``.

    Returns ``(source, clones)``: the (..., 4, 4) source covariance and the
    (..., 8, 8) output covariance, modes ordered as the machine's CloneSet.
    ``v_s`` may be an array, whose shape then leads both results, so a whole
    grid is one stacked evaluation of the compiled source and machine
    (``_source_rows`` and ``_compile``).  The x and p blocks are propagated
    apart and then interleaved.  Only the outputs are validated (finite,
    symmetric, uncertainty bound, clone symmetry), once for the whole stack,
    by the checks every ``GaussianState`` runs; an error names the offending
    v_s, and the gain too where the clones fail.  Below v_s of about
    5.6e-309 (subnormal) the source itself leaves the float range, and the
    error says so.

    ``gain`` is any finite number or (x, p) pair; 0 turns the feedforward
    off, and the CLI caps it at ``cli.MAX_GAIN``.  Rounding at entries of
    about gain^2/v_s makes validation reject the global machine's clones
    from the smallest failing gain measured in the comment on
    ``cli.MAX_GAIN``.  The local machine passes that whole probe, but fails
    at gain 1e8 from v_s = 0.01.
    """
    if machine not in CLONE_PAIRS:
        raise ValueError(f"unknown machine {machine!r}")
    v = _check_v_s(v_s)
    gx, gp = _gain_pair(gain)
    where = _naming_v_s(v, gain)

    source = _source_blocks(v)
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = _propagate(_machine_rows(machine, v, gx, gp), source)
    finite = np.isfinite(blocks).all(axis=(-3, -2, -1))
    _require(finite, "the clones leave the float range", where=where)
    clones = _interleave(blocks)
    _check_covariance(clones, where)
    variances = np.diagonal(blocks, axis1=-2, axis2=-1)
    _check_clone_symmetry(variances, *CLONE_PAIRS[machine], where)
    return _interleave(source), clones


def _infer_epr_variance(state):
    """Recover v_s when the covariance matches an epr_source output.

    The source's x quadratures correlate as c = (v_s - 1/v_s)/2 <= 0, so
    v_s = 1/(hypot(1, c) - c), a sum of non-negative terms that cancels no
    digits.  The whole covariance must then match the source's to 1e-12 of
    its largest entry, so a mixed state near a source gets no label.
    """
    if state.num_modes == 2:
        c = min(float(state.cov[0, 2]), 0.0)  # rounding leaves c ~ +1e-17 at v_s = 1
        v_s = 1.0 / (math.hypot(1.0, c) - c)
        if v_s > 0:
            try:
                source = _interleave(_source_blocks(v_s))
            except ValueError:  # a source this squeezed leaves the float range
                return math.nan
            tol = 1e-12 * np.max(np.abs(source))
            if np.allclose(state.cov, source, rtol=0.0, atol=tol):
                return v_s
    return math.nan


def _clone_set(machine, epr, v, gain, v_s):
    """The CloneSet of ``machine`` compiled at v_s ``v`` on a 2-mode input."""
    if epr.num_modes != 2:
        raise ValueError(f"{machine} machine expects a 2-mode input, got {epr.num_modes}")
    gx, gp = _gain_pair(gain)
    clone1, clone2 = CLONE_PAIRS[machine]
    rows = _machine_rows(machine, v, gx, gp)
    at = _naming_v_s(v_s, gain)
    state = _map_state(_interleave(rows), epr, lambda: f"{at(0)}: the clones leave the float range")
    return CloneSet(state=state, clone1=clone1, clone2=clone2, machine=machine, v_s=v_s)


def local_ecloner(epr, gain=UNITY_GAIN):
    """Clone each arm of a two-mode state with an independent linear cloner.

    Output modes are (arm-1 clone A, arm-2 clone A, arm-1 clone B, arm-2
    clone B); the copies of the input state are the cross pairs
    clone1 = (1A, 2B) and clone2 = (1B, 2A).  At unity gain each output arm
    has the input arm's variance + 1 while every inter-arm correlation
    block passes through unchanged.
    """
    return _clone_set("local", epr, 1.0, gain, _infer_epr_variance(epr))


def global_ecloner(epr, v_s, gain=UNITY_GAIN):
    """Clone a two-mode entangled state as a whole.

    The machine is state-dependent: ``v_s`` must be the squeezing variance
    used to build the input, and re-squeezing harder than that (v_s > 1 or
    outside (0, 1]) is rejected.  An input recognised as an epr_source of
    another v_s (see ``V_S_MATCH_RTOL``) raises ValueError; an input that is
    not a source is cloned as given.  Circuit: disentangle on a 50/50, un-squeeze
    branch 1 by diag(1/s, s) and branch 2 by diag(s, 1/s) with s = sqrt(v_s),
    clone both coherent branches, re-squeeze by the same amounts, and
    recombine clone pairs on 50/50 beamsplitters.  Output modes are
    (1A, 1B, 2A, 2B) with clone1 = (1A, 1B) and clone2 = (2A, 2B); at unity
    gain each output arm carries variance v_s + 1/v_s, twice the input's.
    """
    v_s = float(_check_v_s(float(v_s)))
    inferred = _infer_epr_variance(epr)  # NaN for a non-source, which passes
    if abs(inferred - v_s) > V_S_MATCH_RTOL * v_s:
        raise ValueError(
            f"v_s = {v_s!r} does not match the input, an epr_source of v_s = {float(inferred)!r}"
        )
    return _clone_set("global", epr, v_s, gain, v_s)
