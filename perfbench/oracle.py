"""Independent checks for the benchmark.

Nothing here imports lcdual.  Values are plain numbers: ints, floats, and
the float infinities.  The extension tables are written from the paper's
definitions, (-inf) + inf = inf and inf - inf = -inf, so that a change in
the library's kernel cannot silently agree with itself.
"""

import hashlib
import json
import re

INF = float("inf")
NINF = float("-inf")


def xadd(a, b):
    if a == INF or b == INF:
        return INF
    if a == NINF or b == NINF:
        return NINF
    return a + b


def xsub(y, x):
    """Extended y - x."""
    if x == INF:
        return NINF
    if x == NINF:
        return NINF if y == NINF else INF
    if y == INF or y == NINF:
        return y
    return y - x


def is_member(m, p):
    """p is a member iff m[v][w] >= p[w] - p[v] for every pair."""
    n = len(p)
    return all(m[i][j] >= xsub(p[j], p[i]) for i in range(n) for j in range(n))


def law_ok(m):
    """Identity law (diagonal at most 0) and triangle inequality over kbar."""
    n = len(m)
    for i in range(n):
        if not m[i][i] <= 0:
            return False
    for i in range(n):
        mi = m[i]
        for k in range(n):
            mik = mi[k]
            mk = m[k]
            for j in range(n):
                if mi[j] > xadd(mik, mk[j]):
                    return False
    return True


def shortest_paths(raw):
    """Floyd-Warshall over finite entries and +inf, for inputs with no
    negative cycle; the diagonal is clamped to at most 0 first."""
    n = len(raw)
    d = [list(row) for row in raw]
    for i in range(n):
        d[i][i] = min(d[i][i], 0)
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == INF:
                continue
            di = d[i]
            for j in range(n):
                c = dik + dk[j]
                if c < di[j]:
                    di[j] = c
    return d


def maps_between(dom, cod):
    """All index maps f with dom[a][a'] >= cod[f a][f a'], as tuples of
    codomain positions, lexicographic in codomain order (depth-first with
    forward checking)."""
    n, m = len(dom), len(cod)
    out = []
    choice = []

    def extend(a):
        if a == n:
            out.append(tuple(choice))
            return
        for b in range(m):
            if dom[a][a] < cod[b][b]:
                continue
            if all(dom[a2][a] >= cod[choice[a2]][b] and dom[a][a2] >= cod[b][choice[a2]]
                   for a2 in range(a)):
                choice.append(b)
                extend(a + 1)
                choice.pop()

    extend(0)
    return out


def canonical_leq(m, f, g):
    """Canonical ordering of two parallel maps into m: 0 >= m[f a][g a]."""
    return all(0 >= m[fa][ga] for fa, ga in zip(f, g))


# --- text documents -------------------------------------------------------

def num_text(x):
    if x == INF:
        return "inf"
    if x == NINF:
        return "-inf"
    return repr(x) if isinstance(x, float) else str(x)


def parse_num(text):
    if text == "inf":
        return INF
    if text == "-inf":
        return NINF
    try:
        return int(text)
    except ValueError:
        return float(text)


def matrix_doc(kind, scalar, labels, m):
    head = "points" if kind == "kcategory" else "index"
    key = "hom" if kind == "kcategory" else "d"
    lines = ["kind: %s" % kind, "scalar: %s" % scalar, "%s: %s" % (head, " ".join(labels))]
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            lines.append("%s: %s %s %s" % (key, a, b, num_text(m[i][j])))
    return "\n".join(lines) + "\n"


def points_doc(scalar, labels, points):
    lines = ["kind: generators", "scalar: %s" % scalar, "index: %s" % " ".join(labels)]
    lines += ["point: " + " ".join(num_text(x) for x in p) for p in points]
    return "\n".join(lines) + "\n"


def read_matrix(text):
    """(labels, matrix) of a matrix document, read without the library."""
    labels, entries = None, {}
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        parts = rest.split()
        if key in ("points", "index"):
            labels = parts
        elif key in ("hom", "d"):
            entries[(parts[0], parts[1])] = parse_num(parts[2])
    return labels, [[entries[(a, b)] for b in labels] for a in labels]


# --- normalization and fingerprints --------------------------------------

_NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?(?![\w.])")


def norm_number(x):
    """An integral float as the int of the same value."""
    return int(x) if isinstance(x, float) and x.is_integer() else x


def norm_text(text):
    """Text with every numeric literal rewritten in normalized form, so a
    change of payload type for the same number is not a different answer."""
    return _NUMBER.sub(lambda mo: str(norm_number(parse_num(mo.group(0)))), text)


def fingerprint(obj):
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
