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
Heisenberg stack K of shape (..., 2, modes, cols): the output quadratures as
combinations of the input quadratures followed by those of the vacuum
ancillas.  Axis -3 is the quadrature, x then p, because no gate of these
circuits mixes x with p: a 50/50 beamsplitter acts alike on both, a
squeezer scales the x rows by f and the p rows by 1/f, and the feedforward
adds the n2 readout to x and the n1 readout to p.  One map,
``gaussian._propagate(K, cov)`` = K [cov, 0; 0, 1] K^T, takes a d-mode input
covariance through every circuit, the source's included (its two inputs are
vacuum); the mean goes to K[..., :d] mean.  A machine is a 2 x 4 x 8 K (two
input modes, six ancillas); the squeezing variance may be an array, which
stacks K over a grid.

Inside the package the x and p blocks are the one format: ``_machine_blocks``
returns the validated (..., 2, 2, 2) source blocks and (..., 2, 4, 4) clone
blocks, and the CLI's criteria, fidelity and threshold search read them as
they are.  Only the public API interleaves, into (x1, p1, ...) order:
``machine_covariances`` and ``epr_source`` their blocks at return, the
gate-object API and the CloneSets K itself.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (
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
        _check_clone_symmetry(_quadrature_blocks(self.state.cov), clone1, clone2)
        object.__setattr__(self, "clone1", clone1)
        object.__setattr__(self, "clone2", clone2)
        object.__setattr__(self, "v_s", float(self.v_s))


def _check_clone_symmetry(blocks, clone1, clone2, where=None):
    """Matching modes of the two clones must carry equal x and p variances.

    ``blocks`` holds the (..., 2, 4, 4) x and p blocks of the output
    covariances; ``where`` names the first offending one by its flat stack
    index, as in ``_check_covariance``.
    """
    var = np.diagonal(blocks, axis1=-2, axis2=-1)
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


def _identity(shape, modes):
    """The Heisenberg stack (shape + (2, modes, modes)) of a circuit with no gates."""
    return np.broadcast_to(np.eye(modes), shape + (2, modes, modes)).copy()


def _beamsplit(rows, i, j):
    """A 50/50 beamsplitter on modes i < j of a Heisenberg stack.

    The two modes' rows are taken as one strided view, not a gathered copy.
    """
    pair = rows[..., i : j + 1 : j - i, :]
    pair[...] = _BALANCED @ pair


def _squeeze(rows, mode, factors):
    """A squeezer on one mode's rows: ``factors`` (..., 2, 1) = (f, 1/f)
    scale its x row and its p row."""
    rows[..., mode, :] *= factors


def _squeeze_factors(f):
    """The (..., 2, 1) factors (f, 1/f) of a squeezer of factor f, stacked like f."""
    factors = np.empty(np.shape(f) + (2, 1))
    factors[..., 0, 0] = f
    factors[..., 1, 0] = 1.0 / f
    return factors


def _source_blocks(v):
    """x and p blocks (..., 2, 2, 2) of epr_source's covariance at the validated
    v_s ``v``, stacked like v; a ValueError names the first v_s where the
    source, whose entries grow as 1/v_s, leaves the float range."""
    s = np.sqrt(v)
    rows = _identity(np.shape(s), 2)
    with np.errstate(over="ignore", invalid="ignore"):
        _squeeze(rows, 0, _squeeze_factors(s))
        _squeeze(rows, 1, _squeeze_factors(1.0 / s))
        _beamsplit(rows, 0, 1)
        blocks = _propagate(rows, np.eye(2))  # both inputs are vacuum
    finite = np.isfinite(blocks).all(axis=(-3, -2, -1))
    _require(finite, "the source leaves the float range", where=_naming_v_s(v))
    return blocks


def epr_source(v_s):
    """Two-mode entangled state from orthogonally squeezed beams on a 50/50.

    Mode 0 is squeezed in x (variance v_s <= 1), mode 1 in p, and the pair
    interferes on a balanced beamsplitter.  Each output arm has variance
    (v_s + 1/v_s)/2 in both quadratures; the x quadratures carry correlation
    (v_s - 1/v_s)/2 and the p quadratures the opposite sign.  The state is
    pure for every v_s; random displacements are applied separately via
    :func:`ecloner.gaussian.displace`.

    Below v_s = 1e-4 the state constructor's validation rejects some v_s
    (``UncertaintyViolation``), erratically.  On 400-point log grids the
    uncertainty bound rejects none of [1e-4, 1e-3], 91 of [1e-5, 1e-4] (the
    largest 5.85e-5), 242 of [1e-6, 1e-5] and 266 of [1e-7, 1e-6]; 5e-6
    passes while 1e-5 fails.  From about 6.7e-9 down, rounding mostly
    leaves the covariance without a Cholesky factor, and it is rejected as
    not positive definite: 3341 of 4000 log-spaced v_s in [1e-300, 1], while
    22 fail the bound and 637 build.  ROADMAP item 4 holds the v_s floor,
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

    rows = _identity((), n + 3)
    with np.errstate(over="ignore", invalid="ignore"):
        _clone_rows(rows, mode, (n, n + 1, n + 2), gx, gp)
    # The feedforward row is not symplectic, so the moments are only
    # meaningful once the consumed measurement modes are dropped.
    keep = [i for i in range(n + 3) if i not in (n, n + 1)]
    k = _interleave(rows[:, keep])
    return _map_state(k, state, lambda: f"gain = {gain!r}: the clones leave the float range")


def _machine_rows(machine, s, gx, gp):
    """The (..., 2, 4, 8) Heisenberg stack of a machine at squeeze factor s.

    Columns 0-1 are the input modes, 2-7 the six vacuum ancillas; rows are
    the outputs in CloneSet order.  The global machine stacks over an array
    s; the local one does not depend on s.
    """
    shape = np.shape(s) if machine == "global" else ()
    rows = _identity(shape, _MACHINE_MODES)
    if machine == "global":
        up, down = _squeeze_factors(s), _squeeze_factors(1.0 / s)
        _beamsplit(rows, 0, 1)  # branches: x-squeezed, p-squeezed
        _squeeze(rows, 0, down)
        _squeeze(rows, 1, up)
    _clone_rows(rows, 0, (2, 3, 4), gx, gp)  # (1A, arm 2, 1B) on modes 0, 1, 4
    _clone_rows(rows, 1, (5, 6, 7), gx, gp)  # (1A, 2A, 1B, 2B) on modes 0, 1, 4, 7
    if machine == "global":
        for mode, factors in ((0, up), (4, up), (1, down), (7, down)):
            _squeeze(rows, mode, factors)
        _beamsplit(rows, 0, 1)
        _beamsplit(rows, 4, 7)
    return rows[..., _OUTPUT_MODES, :]


def machine_covariances(machine, v_s, gain=UNITY_GAIN):
    """Input and output covariances of a machine fed by ``epr_source(v_s)``.

    Returns ``(source, clones)``: the (..., 4, 4) source covariance and the
    (..., 8, 8) output covariance, modes ordered as the machine's CloneSet.
    ``v_s`` may be an array, whose shape then leads both results, so a whole
    grid is one stacked evaluation of the compiled machine.  The x and p
    blocks are propagated apart, and only the outputs are validated (finite,
    symmetric, uncertainty bound, clone symmetry), once for the whole stack,
    before the blocks are interleaved; an error names the offending v_s, and
    the gain too where the clones fail.  Below v_s of about 5.6e-309
    (subnormal) the source itself leaves the float range, and the error says
    so.

    ``gain`` is any finite number or (x, p) pair; 0 turns the feedforward
    off, and the CLI caps it at ``cli.MAX_GAIN``.  Rounding at entries of
    about gain^2/v_s makes validation reject the global machine's clones
    from the smallest failing gain measured in the comment on
    ``cli.MAX_GAIN``.  The local machine passes that whole probe, but fails
    at gain 1e8 from v_s = 0.01.
    """
    return tuple(_interleave(blocks) for blocks in _machine_blocks(machine, v_s, gain))


def _machine_blocks(machine, v_s, gain, source=None):
    """``machine_covariances`` as x and p blocks: the (..., 2, 2, 2) source
    and the validated (..., 2, 4, 4) clones, with its checks and errors.
    ``source``, where given, is ``_source_blocks`` of the same v_s, so that
    machines on one grid share it."""
    if machine not in CLONE_PAIRS:
        raise ValueError(f"unknown machine {machine!r}")
    v = _check_v_s(v_s)
    gx, gp = _gain_pair(gain)
    where = _naming_v_s(v, gain)

    if source is None:
        source = _source_blocks(v)
    with np.errstate(over="ignore", invalid="ignore"):
        clones = _propagate(_machine_rows(machine, np.sqrt(v), gx, gp), source)
    finite = np.isfinite(clones).all(axis=(-3, -2, -1))
    _require(finite, "the clones leave the float range", where=where)
    _check_covariance(clones, where, split=True)
    _check_clone_symmetry(clones, *CLONE_PAIRS[machine], where)
    return source, clones


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


def _clone_set(machine, epr, s, gain, v_s):
    """The CloneSet of ``machine`` at squeeze factor s on a 2-mode input."""
    if epr.num_modes != 2:
        raise ValueError(f"{machine} machine expects a 2-mode input, got {epr.num_modes}")
    gx, gp = _gain_pair(gain)
    clone1, clone2 = CLONE_PAIRS[machine]
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _machine_rows(machine, s, gx, gp)
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
    v_s = float(v_s)
    s = float(np.sqrt(_check_v_s(v_s)))
    inferred = _infer_epr_variance(epr)  # NaN for a non-source, which passes
    if abs(inferred - v_s) > V_S_MATCH_RTOL * v_s:
        raise ValueError(
            f"v_s = {v_s!r} does not match the input, an epr_source of v_s = {float(inferred)!r}"
        )
    return _clone_set("global", epr, s, gain, v_s)
