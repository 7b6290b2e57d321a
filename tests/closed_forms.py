"""Exact closed forms of clone 1's criteria and fidelity: the references of the precision tests.

Fed by ``epr_source(v_s)``, whose arms have variance a = (v + 1/v) / 2 and
x correlation c = (v - 1/v) / 2 (the p correlation is -c), either machine
at feedforward gain g leaves clone 1 with the x block [[C, X], [X, C]],
C and X as ``_block`` gives them, and the p block at the p gain with -X.
These forms come from the circuits' gate chains, multiplied out
symbolically; at unity gain g = sqrt(2) they reduce to ``CLOSED_FORMS``.
"""

from decimal import Decimal, localcontext
from fractions import Fraction

# At unity gain every column is rational in v_s, so a Fraction of the float
# v_s gives the exact value it should round to.
CLOSED_FORMS = {
    "i_local": lambda v: v + 1,
    "i_global": lambda v: 2 * v,
    "eps_local": lambda v: Fraction(4),
    "eps_global": lambda v: 16 * v * v / (v * v + 1) ** 2,
    "f_local": lambda v: 4 * v / ((v + 2) * (2 * v + 1)),
    "f_global": lambda v: Fraction(4, 9),
}


def _block(machine, v, g):
    """(C, X) of clone 1 in one quadrature at gain g, with the x block's signs."""
    if machine == "global":
        return (g * g + 2) * (v * v + 1) / (4 * v), (g * g + 2) * (v * v - 1) / (4 * v)
    u = Decimal(2).sqrt() * g
    variance = ((g * g + 2) * (v * v + 6 * v + 1) + 2 * u * (v - 1) ** 2) / (16 * v)
    return variance, (v * v - 1) * (u + 2) ** 2 / (32 * v)


def exact_columns(machine, v_s, gain):
    """Clone 1's (inseparability, epr_paradox, fidelity) as Decimals to 40
    digits, at the float v_s and the gain, a float or an (x, p) pair."""
    gains = gain if isinstance(gain, tuple) else (gain, gain)
    with localcontext() as ctx:
        ctx.prec = 40
        v = Decimal(v_s)
        a, c = (v + 1 / v) / 2, (v - 1 / v) / 2
        combination, conditional, joint = Decimal(1), Decimal(1), Decimal(1)
        for g in gains:
            variance, correlation = _block(machine, v, Decimal(g))
            combination *= variance - abs(correlation)  # (C_aa + C_bb - 2|C_ab|) / 2
            conditional *= variance - correlation * correlation / variance
            joint *= (a + variance) ** 2 - (c + correlation) ** 2  # det(A + B)
        return combination.sqrt(), conditional, 4 / joint.sqrt()
