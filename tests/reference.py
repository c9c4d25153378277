"""Reference formulas the tests check the engines against.

The engines compute every insertion weight through
`expansion.insertion_weight`; these are the weights as the definitions
state them, on sets and sizes.
"""

from fractions import Fraction


def oi_weight(s_mask: int, t_mask: int, u_mask: int) -> int:
    """Over-intersection of S and T inside U, on bitmasks."""
    s = (s_mask & u_mask).bit_count()
    t = (t_mask & u_mask).bit_count()
    overlap = (s_mask & t_mask & u_mask).bit_count()
    return overlap - max(0, s + t - u_mask.bit_count())


def mult_weight(s_size: int, k: int, u_size: int) -> Fraction:
    """Weight of a flat of size s_size in gamma_k over a u_size universe."""
    return min(s_size, k) - Fraction(k * s_size, u_size)
