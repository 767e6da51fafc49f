"""The summation order the tests hold cesel's own sums to.

cesel adds every sum of its own left to right, at any term count. NumPy's
reductions add left to right only below ``PAIRWISE_TERMS`` terms, so the
verbatim earlier kernels, which used them, are bit-for-bit references only
below that count.
"""
import operator
from functools import reduce

# NumPy's reductions change their summation order from this many terms on.
PAIRWISE_TERMS = 8


def left_to_right(terms):
    """The sum of ``terms`` added one after another."""
    return reduce(operator.add, terms)
