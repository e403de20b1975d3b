from lcdual.lattices import get_lattice
from lcdual.scalars import NEG_INF, POS_INF, fin
from lcdual.categories import make_category
from lcdual.lconvex import closure, make_lcs
from lcdual.duality import lcs_to_cat


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance verdict lines after the run, uncaptured."""
    try:
        from test_acceptance import VERDICT_LINES
    except ImportError:
        return
    if VERDICT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in VERDICT_LINES:
            terminalreporter.write_line(line)


def kcat(rows, labels=None, kind="int"):
    """Build a category over kbar from a matrix of ints / float infinities."""
    n = len(rows)
    if labels is None:
        labels = tuple("abcdefgh"[:n])
    conv = [[_scal(x) for x in row] for row in rows]
    return make_category(get_lattice("kbar", kind), labels, conv)


def _scal(x):
    if x == float("inf"):
        return POS_INF
    if x == float("-inf"):
        return NEG_INF
    return fin(x)


INF = float("inf")
NINF = float("-inf")


def random_valid_lcs(rng, n_indices, entry_bound=3, labels=None):
    """Random law-satisfying difference-bound matrix, built via closure."""
    if labels is None:
        labels = tuple("vwxyz"[:n_indices])
    pool = [NEG_INF, POS_INF] + [fin(v) for v in range(-entry_bound, entry_bound + 1)]
    rows = [[rng.choice(pool) for _ in range(n_indices)] for _ in range(n_indices)]
    return closure(make_lcs(labels, rows))


def random_valid_kcat(rng, n_objects, entry_bound=3):
    return lcs_to_cat(random_valid_lcs(rng, n_objects, entry_bound))
