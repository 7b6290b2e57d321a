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
"""

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import (
    GaussianState,
    append_vacuum,
    apply,
    beamsplitter,
    squeeze_gate,
    vacuum,
)

# Feedforward gain that cancels the first beamsplitter's vacuum noise and
# makes the whole circuit unity-gain on the signal.
UNITY_GAIN = math.sqrt(2.0)

VARIANCE_MATCH_TOL = 1e-12


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
        clone1 = tuple(int(m) for m in self.clone1)
        clone2 = tuple(int(m) for m in self.clone2)
        if self.state.num_modes != 4:
            raise ValueError(f"clone set needs a 4-mode state, got {self.state.num_modes}")
        if sorted(clone1 + clone2) != [0, 1, 2, 3]:
            raise ValueError(f"clone pairs {clone1}, {clone2} must partition the 4 modes")
        if self.machine not in ("local", "global"):
            raise ValueError(f"unknown machine tag {self.machine!r}")
        for m1, m2 in zip(clone1, clone2):
            d1 = np.diag(self.state.mode_block(m1))
            d2 = np.diag(self.state.mode_block(m2))
            if np.max(np.abs(d1 - d2)) > VARIANCE_MATCH_TOL:
                raise ValueError("clones are not symmetric: single-mode variances differ")
        object.__setattr__(self, "clone1", clone1)
        object.__setattr__(self, "clone2", clone2)
        object.__setattr__(self, "v_s", float(self.v_s))


def clone_state(clone_set, which=1):
    """Reduced two-mode state of one clone, modes ordered as its pair."""
    if which not in (1, 2):
        raise ValueError(f"clone index must be 1 or 2, got {which}")
    pair = clone_set.clone1 if which == 1 else clone_set.clone2
    q = np.concatenate([(2 * m, 2 * m + 1) for m in pair])
    return GaussianState(clone_set.state.mean[q], clone_set.state.cov[np.ix_(q, q)])


def epr_source(v_s):
    """Two-mode entangled state from orthogonally squeezed beams on a 50/50.

    Mode 0 is squeezed in x (variance v_s <= 1), mode 1 in p, and the pair
    interferes on a balanced beamsplitter.  Each output arm has variance
    (v_s + 1/v_s)/2 in both quadratures; the x quadratures carry correlation
    (v_s - 1/v_s)/2 and the p quadratures the opposite sign.  The state is
    pure for every v_s; random displacements are applied separately via
    :func:`ecloner.gaussian.displace`.

    Squeezing beyond roughly 30 dB (v_s below ~1e-3) exhausts the
    double-precision headroom of the spectral validation and is rejected by
    the state constructor rather than here.
    """
    v_s = float(v_s)
    if not 0.0 < v_s <= 1.0:
        raise ValueError(f"squeezing variance must lie in (0, 1], got {v_s}")
    s = math.sqrt(v_s)
    state = vacuum(2)
    state = apply(squeeze_gate(s, 0), state)
    state = apply(squeeze_gate(1.0 / s, 1), state)
    return apply(beamsplitter(0.5, (0, 1)), state)


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


def linear_cloner(state, mode, gain=UNITY_GAIN):
    """Clone one mode of a state; the two clones replace the input mode.

    Clone A lands at ``mode``; clone B is appended as the last mode.  The
    circuit is evaluated in the Heisenberg picture over the input plus three
    vacuum ancillas: a 50/50 split, a dual-homodyne readout of the tapped
    beam, feedforward of the readout with gain (g_x, g_p) onto the kept
    beam, and a final 50/50 split.  The two measured ancilla modes are
    discarded.  ``gain`` may be a scalar or an (x, p) pair; unity gain
    sqrt(2) gives clones with the input mean and variance + 1.
    """
    n = state.num_modes
    mode = int(mode)
    if not 0 <= mode < n:
        raise ValueError(f"mode {mode} out of range for {n} modes")
    gx, gp = _gain_pair(gain)

    work = append_vacuum(state, 3)
    n1, n2, n3 = n, n + 1, n + 2
    total = n + 3

    # mode -> kept beam (in + N1)/sqrt(2), n1 -> tapped beam (in - N1)/sqrt(2)
    tap = beamsplitter(0.5, (mode, n1)).expand(total)
    # dual homodyne: n2 slot's x and n1 slot's p are the two readouts
    readout = beamsplitter(0.5, (n1, n2)).expand(total)
    feedforward = np.eye(2 * total)
    feedforward[2 * mode, 2 * n2] = gx
    feedforward[2 * mode + 1, 2 * n1 + 1] = gp
    split = beamsplitter(0.5, (mode, n3)).expand(total)

    circuit = split @ feedforward @ readout @ tap
    mean = circuit @ work.mean
    cov = circuit @ work.cov @ circuit.T
    # The feedforward row is not symplectic, so intermediate moments are only
    # meaningful once the consumed measurement modes are dropped.
    keep = [i for i in range(total) if i not in (n1, n2)]
    q = np.concatenate([(2 * i, 2 * i + 1) for i in keep])
    cov = cov[np.ix_(q, q)]
    return GaussianState(mean[q], 0.5 * (cov + cov.T))


def _infer_epr_variance(state):
    """Recover v_s when the covariance matches an epr_source output."""
    a = state.cov[0, 0]
    if state.num_modes == 2 and a >= 1.0:
        v_s = a - math.sqrt(max(a * a - 1.0, 0.0))
        if v_s > 0 and np.allclose(state.cov, epr_source(v_s).cov, atol=1e-9):
            return v_s
    return math.nan


def local_ecloner(epr, gain=UNITY_GAIN):
    """Clone each arm of a two-mode state with an independent linear cloner.

    Output modes are (arm-1 clone A, arm-2 clone A, arm-1 clone B, arm-2
    clone B); the copies of the input state are the cross pairs
    clone1 = (1A, 2B) and clone2 = (1B, 2A).  At unity gain each output arm
    has the input arm's variance + 1 while every inter-arm correlation
    block passes through unchanged.
    """
    if epr.num_modes != 2:
        raise ValueError(f"local machine expects a 2-mode input, got {epr.num_modes}")
    work = linear_cloner(epr, 0, gain)  # (1A, arm2, 1B)
    work = linear_cloner(work, 1, gain)  # (1A, 2A, 1B, 2B)
    return CloneSet(
        state=work,
        clone1=(0, 3),
        clone2=(2, 1),
        machine="local",
        v_s=_infer_epr_variance(epr),
    )


def global_ecloner(epr, v_s, gain=UNITY_GAIN):
    """Clone a two-mode entangled state as a whole.

    The machine is state-dependent: ``v_s`` must be the squeezing variance
    used to build the input, and re-squeezing harder than that (v_s > 1 or
    outside (0, 1]) is rejected.  Circuit: disentangle on a 50/50, un-squeeze
    branch 1 by diag(1/s, s) and branch 2 by diag(s, 1/s) with s = sqrt(v_s),
    clone both coherent branches, re-squeeze by the same amounts, and
    recombine clone pairs on 50/50 beamsplitters.  Output modes are
    (1A, 1B, 2A, 2B) with clone1 = (1A, 1B) and clone2 = (2A, 2B); at unity
    gain each output arm carries variance v_s + 1/v_s, twice the input's.
    """
    if epr.num_modes != 2:
        raise ValueError(f"global machine expects a 2-mode input, got {epr.num_modes}")
    v_s = float(v_s)
    if not 0.0 < v_s <= 1.0:
        raise ValueError(f"squeezing variance must lie in (0, 1], got {v_s}")
    s = math.sqrt(v_s)

    work = apply(beamsplitter(0.5, (0, 1)), epr)  # branches: x-squeezed, p-squeezed
    work = apply(squeeze_gate(1.0 / s, 0), work)
    work = apply(squeeze_gate(s, 1), work)
    work = linear_cloner(work, 0, gain)  # (1A, branch2, 1B)
    work = linear_cloner(work, 1, gain)  # (1A, 2A, 1B, 2B) in branch labels
    work = apply(squeeze_gate(s, 0), work)
    work = apply(squeeze_gate(s, 2), work)
    work = apply(squeeze_gate(1.0 / s, 1), work)
    work = apply(squeeze_gate(1.0 / s, 3), work)
    work = apply(beamsplitter(0.5, (0, 1)), work)
    work = apply(beamsplitter(0.5, (2, 3)), work)
    return CloneSet(state=work, clone1=(0, 1), clone2=(2, 3), machine="global", v_s=v_s)
