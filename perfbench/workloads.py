"""The benchmark workloads.

Each workload draws its requests from a fixed universe: a request's input
depends only on its key (class and index), never on the run's seed, so the
expected output of every request in the universe can be recorded once
(`fingerprints.json`).  The seed picks which requests a run uses and in
which order.  Requests come in blocks that hold every request class in a
fixed proportion; a run measures whole blocks, so the mix, and with it the
median latency, does not depend on how many blocks fit in the run.

`execute` makes only program calls and is the timed part of a request.
`check` runs afterwards, untimed, against the independent oracle.
"""

import io
import os
import random
import shutil
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout

from oracle import (
    INF, NINF, canonical_leq, fingerprint, is_member, law_ok, maps_between,
    matrix_doc, norm_text, num_text, points_doc, read_matrix, shortest_paths,
)

Request = namedtuple("Request", "key cls data")


def draw(rng, universe, count):
    """`count` indices below `universe`, none repeated before all are used."""
    out = []
    while len(out) < count:
        perm = list(range(universe))
        rng.shuffle(perm)
        out.extend(perm)
    return out[:count]


def mixed_blocks(rng, mix, n_blocks, make):
    """Blocks holding `mix[cls]` requests of each class, shuffled."""
    uids = {cls: iter(draw(rng, universe, count * n_blocks))
            for cls, (universe, count) in mix.items()}
    blocks = []
    for _ in range(n_blocks):
        block = [make(cls, next(uids[cls]))
                 for cls, (_, count) in mix.items() for _ in range(count)]
        rng.shuffle(block)
        blocks.append(block)
    return blocks


def universe_blocks(mix, make):
    return [[make(cls, uid) for uid in range(universe)]
            for cls, (universe, _) in mix.items()]


class Workload:
    name = None
    budget_s = None
    # The highest percentile with at least ten samples beyond it at the
    # seed commit's request rate, but not below the median.  It is fixed so
    # that a faster program is not measured at a higher percentile.
    TAIL_PERCENTILE = 99.5
    imports = ("lcdual", "lcdual.docfiles")

    def blocks(self, rng):
        raise NotImplementedError

    def all_blocks(self):
        raise NotImplementedError

    def setup(self, lib, blocks):
        return {"lib": lib}

    def execute(self, ctx, req):
        raise NotImplementedError

    def check(self, ctx, req, out):
        """(reason the output is wrong or None, material to fingerprint)."""
        raise NotImplementedError

    def close(self):
        pass


# --- dbm_build ------------------------------------------------------------

class DbmBuild(Workload):
    """Raw constraints through closure, validation, duality and hull.

    Runnable, but not listed in BENCHMARK.json: even at reference speed
    its half-second requests, tens to a run, spread by up to 0.18 between
    runs of the same code, more than a third of the 0.25 bounds.
    """

    name = "dbm_build"
    budget_s = 30.0
    # class: (universe size, requests per block); one request in four
    # plants a negative cycle, at n = 32.  A block is the whole universe,
    # so every seed runs the same requests in its own order: the plain
    # n = 32 class holds the median, the planted cycles the tail.
    MIX = {"n32": (5, 5), "n32_cycle": (2, 2), "n48": (1, 1)}
    BLOCKS = 1
    TAIL_PERCENTILE = 70

    def make(self, cls, uid):
        rng = random.Random("dbm_build/%s/%d" % (cls, uid))
        n = 48 if cls == "n48" else 32
        labels = ["x%d" % i for i in range(n)]
        pot = [rng.randint(-100, 100) for _ in range(n)]
        raw = [[rng.randint(0, 5) if i == j
                else INF if rng.random() < 0.25
                else pot[j] - pot[i] + rng.randint(0, 30)
                for j in range(n)] for i in range(n)]
        cycle = ()
        if cls == "n32_cycle":
            cycle = tuple(rng.sample(range(n), 3))
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                raw[a][b] = pot[b] - pot[a] - 5
        text = matrix_doc("constraints", "int", labels, raw)
        return Request("%s/%d" % (cls, uid), cls,
                       {"text": text, "labels": labels, "raw": raw, "pot": pot, "cycle": cycle})

    def blocks(self, rng):
        return mixed_blocks(rng, self.MIX, self.BLOCKS, self.make)

    def all_blocks(self):
        return universe_blocks(self.MIX, self.make)

    def execute(self, ctx, req):
        lib = ctx["lib"]
        docfiles, lconvex, duality = lib.docfiles, lib.lconvex, lib.duality
        doc = docfiles.parse_document(req.data["text"])
        D = lconvex.closure(docfiles.to_constraints(doc))
        violations = lconvex.validate_lcs(D)
        roundtrip = duality.roundtrip_lcs(D)
        yoneda = lib.categories.verify_yoneda(duality.lcs_to_cat(D))
        hull = lconvex.from_generators(
            lconvex.GeneratorSet(D.index, tuple(lconvex.canonical_points(D))))
        return len(violations), roundtrip, yoneda, docfiles.emit_document(docfiles.from_lcs(hull))

    def check(self, ctx, req, out):
        n_bad, roundtrip, yoneda, text = out
        d = req.data
        material = [n_bad, bool(roundtrip), bool(yoneda), norm_text(text)]
        labels, m = read_matrix(text)
        if labels != d["labels"]:
            return "output labels differ from the input", material
        if n_bad or not roundtrip or not yoneda:
            return "library rejects its own closure", material
        if not law_ok(m):
            return "output violates the metric laws", material
        raw, n = d["raw"], len(labels)
        if any(m[i][j] > (min(raw[i][j], 0) if i == j else raw[i][j])
               for i in range(n) for j in range(n)):
            return "closure loosened a bound", material
        if d["cycle"]:
            if any(m[v][v] != NINF for v in d["cycle"]):
                return "diagonal on the planted cycle is not -inf", material
        else:
            if not is_member(m, d["pot"]):
                return "hidden potential is not a member", material
            if m != shortest_paths(raw):
                return "closure differs from shortest paths", material
        return None, material


# --- map_search -----------------------------------------------------------

class MapSearch(Workload):
    """Functor and homomorphism enumeration, sparse and dense."""

    name = "map_search"
    budget_s = 40.0
    # kind: (pair universe, pairs per block).  Four sparse pairs per dense
    # one put the median well inside the sparse requests and the p90 tail
    # in the middle of the dense ones; with an even split both sat on the
    # boundary between sparse and dense costs.
    PAIRS = {"sparse": (8, 4), "dense": (4, 1)}
    # kind: (objects of A, objects of B).  Both kinds search the same 6^5
    # candidate maps: sparse pairs keep tens, dense (collapsed) pairs keep
    # all of them.  At these sizes a request takes about a tenth of a
    # second, so a run repeats each request tens of times.
    SIZES = {"sparse": (5, 6), "dense": (5, 6)}
    BLOCKS = 1
    TAIL_PERCENTILE = 90

    @staticmethod
    def metric(rng, n):
        """Asymmetric integer metric d(a, b) = 2|y_b - y_a| + (y_b - y_a)."""
        y = [rng.randint(0, 12) for _ in range(n)]
        return [[2 * abs(y[j] - y[i]) + (y[j] - y[i]) for j in range(n)] for i in range(n)]

    def make_pair(self, kind, uid):
        """Sparse pairs are one pair scaled by 1 + uid: scaling keeps every
        comparison, so each sparse request does the same work."""
        n_a, n_b = self.SIZES[kind]
        a_labels = ["a%d" % i for i in range(n_a)]
        if kind == "dense":
            a = self.metric(random.Random("map_search/dense/%d" % uid), n_a)
            b_labels = ["c%d" % i for i in range(n_b)]
            b = [[NINF] * n_b for _ in range(n_b)]
        else:
            rng = random.Random("map_search/sparse")
            b_labels = ["b%d" % i for i in range(n_b)]
            while True:
                a, b = self.metric(rng, n_a), self.metric(rng, n_b)
                if 10 <= len(maps_between(a, b)) < 100:
                    break
            a, b = ([[x * (1 + uid) for x in row] for row in m] for m in (a, b))
        maps = maps_between(a, b)
        return {"key": "%s/%d" % (kind, uid),
                "a": matrix_doc("kcategory", "int", a_labels, a),
                "b": matrix_doc("kcategory", "int", b_labels, b),
                "b_labels": b_labels, "count": len(maps), "maps": fingerprint(maps)}

    def pair_requests(self, pair):
        kind = pair["key"].split("/")[0]
        return [Request(pair["key"] + "/" + op, kind + "/" + op, {"pair": pair, "op": op})
                for op in ("functors", "homs")]

    def blocks(self, rng):
        ids = {kind: iter(draw(rng, u, n * self.BLOCKS))
               for kind, (u, n) in self.PAIRS.items()}
        return [[req for kind, (_, n) in self.PAIRS.items() for _ in range(n)
                 for req in self.pair_requests(self.make_pair(kind, next(ids[kind])))]
                for _ in range(self.BLOCKS)]

    def all_blocks(self):
        return [self.pair_requests(self.make_pair(kind, uid))
                for kind, (u, _) in self.PAIRS.items() for uid in range(u)]

    def setup(self, lib, blocks):
        docfiles, duality = lib.docfiles, lib.duality
        spaces = {}
        for block in blocks:
            for req in block:
                pair = req.data["pair"]
                if pair["key"] not in spaces:
                    A = docfiles.to_category(docfiles.parse_document(pair["a"]))
                    B = docfiles.to_category(docfiles.parse_document(pair["b"]))
                    spaces[pair["key"]] = (A, B, duality.cat_to_lcs(B), duality.cat_to_lcs(A))
        return {"lib": lib, "spaces": spaces}

    def execute(self, ctx, req):
        A, B, DB, EA = ctx["spaces"][req.data["pair"]["key"]]
        if req.data["op"] == "functors":
            return A.objects, list(ctx["lib"].categories.enumerate_functors(A, B))
        return EA.index, list(ctx["lib"].duality.enumerate_homs(DB, EA))

    def check(self, ctx, req, out):
        labels, found = out
        pair = req.data["pair"]
        pos = {b: i for i, b in enumerate(pair["b_labels"])}
        maps = fingerprint([[pos[f(a)] for a in labels] for f in found])
        material = [len(found), maps]
        if len(found) != pair["count"]:
            return "found %d maps, the oracle finds %d" % (len(found), pair["count"]), material
        if maps != pair["maps"]:
            return "maps differ from the oracle's", material
        return None, material


# --- cli_small ------------------------------------------------------------

class CliSmall(Workload):
    """Small documents through `lcdual.cli.main`, in process."""

    name = "cli_small"
    budget_s = 10.0
    imports = ("lcdual", "lcdual.cli")
    LABELS = ("v", "w", "x", "y", "z")
    LATTICES = ("two", "kbar", "kbar_plus", "kbar_plus_cart")
    # class: (universe size, requests per block); 10 malformed documents
    # (exit 2) and 10 invalid objects (exit 1) in every 100 requests.
    MIX = {
        "validate": (32, 14), "validate_bad": (32, 5), "dual": (32, 10),
        "member": (32, 10), "closure": (32, 9), "hull": (32, 9),
        "classify2": (32, 8), "classify2_bad": (32, 3), "functors": (32, 3),
        "homs": (32, 3), "leq": (32, 4), "yoneda": (32, 3), "yoneda_bad": (32, 2),
        "render": (32, 3), "laws": (4, 4), "malformed": (32, 10),
    }
    # Enough blocks that a run uses every document of the universe, so
    # seeds differ only in the order of the requests.
    BLOCKS = 16

    def __init__(self, root):
        self.dir = os.path.join(".perfbench", "cli-%d" % os.getpid())
        self.root = root
        os.makedirs(os.path.join(root, self.dir), exist_ok=True)

    def close(self):
        shutil.rmtree(os.path.join(self.root, self.dir), ignore_errors=True)

    def write(self, name, text):
        path = os.path.join(self.dir, name)
        with open(os.path.join(self.root, path), "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    # generators of valid and invalid matrices

    def valid(self, rng, n, scalar="int"):
        scale = 2 if scalar == "real" else 1
        pot = [rng.randint(-5 * scale, 5 * scale) for _ in range(n)]
        raw = [[0 if i == j else INF if rng.random() < 0.3
                else pot[j] - pot[i] + rng.randint(0, 3 * scale)
                for j in range(n)] for i in range(n)]
        m = shortest_paths(raw)
        if scalar == "real":
            m = [[x / 2 for x in row] for row in m]
            pot = [x / 2 for x in pot]
        return m, pot

    def two_point(self, rng, valid):
        grid = [NINF, -2, -1, 0, 1, 2, INF]
        while True:
            m = [[rng.choice(grid) for _ in range(2)] for _ in range(2)]
            if law_ok(m) == valid:
                return m

    def broken(self, rng, m):
        m = [list(row) for row in m]
        i = rng.randrange(len(m))
        m[i][i] = rng.randint(1, 3)
        return m

    def labels(self, rng, lo=2, hi=5):
        return list(self.LABELS[:rng.randint(lo, hi)])

    def matrix_file(self, rng, key, kind=None, scalar=None, n=None, m=None):
        kind = kind or rng.choice(("kcategory", "lconvex"))
        scalar = scalar or ("real" if rng.random() < 0.2 else "int")
        labels = list(self.LABELS[:n]) if n else self.labels(rng)
        if m is None:
            m, _ = self.valid(rng, len(labels), scalar)
        if scalar == "real":
            m = [[float(x) for x in row] for row in m]
        return self.write(key + ".txt", matrix_doc(kind, scalar, labels, m))

    def malformed(self, rng, key):
        """A document with one bad line; returns (argv, line number)."""
        cmd = rng.choice(("validate", "dual", "closure", "hull", "member", "classify2"))
        labels = list(self.LABELS[:2]) if cmd == "classify2" else self.labels(rng)
        if cmd == "hull":
            pts = [[rng.randint(-3, 3) for _ in labels] for _ in range(2)]
            lines = points_doc("int", labels, pts).splitlines()
            bad = rng.choice(("point: 1", "junk line", "pt: 0", "point: " + " ".join(["1x"] * len(labels))))
        else:
            kind = {"closure": "constraints", "member": "lconvex"}.get(cmd) or rng.choice(("kcategory", "lconvex"))
            m, _ = self.valid(rng, len(labels))
            lines = matrix_doc(kind, "int", labels, m).splitlines()
            key_ = "hom" if kind == "kcategory" else "d"
            bad = rng.choice(("junk line", "weight: 3", "%s: %s %s 1x" % (key_, labels[0], labels[1]),
                              "%s: %s q 0" % (key_, labels[0]), lines[3]))
        at = rng.randint(4, len(lines))
        lines.insert(at, bad)
        path = self.write(key + ".txt", "\n".join(lines) + "\n")
        argv = [cmd, path]
        if cmd == "member":
            argv += ["--point", ",".join("%s=0" % v for v in labels)]
        return argv, at + 1

    def make(self, cls, uid):
        rng = random.Random("cli_small/%s/%d" % (cls, uid))
        key = "%s-%d" % (cls, uid)
        exit_code, line, fingerprinted = 0, None, True
        if cls in ("validate", "dual"):
            argv = [cls, self.matrix_file(rng, key)]
        elif cls == "validate_bad":
            labels = self.labels(rng)
            m = self.broken(rng, self.valid(rng, len(labels))[0])
            argv, exit_code, fingerprinted = ["validate", self.matrix_file(rng, key, n=len(labels), m=m)], 1, False
        elif cls == "member":
            scalar = "real" if rng.random() < 0.2 else "int"
            n = rng.randint(2, 5)
            m, pot = self.valid(rng, n, scalar)
            p = [x + 1 for x in pot] if rng.random() < 0.5 else [rng.randint(-4, 4) for _ in range(n)]
            if rng.random() < 0.2:
                p[rng.randrange(n)] = rng.choice((INF, NINF))
            if scalar == "real":
                p = [float(x) for x in p]
            path = self.matrix_file(rng, key, "lconvex", scalar, n, m)
            spec = ",".join("%s=%s" % (v, num_text(x)) for v, x in zip(self.LABELS, p))
            argv, exit_code = ["member", path, "--point", spec], 0 if is_member(m, p) else 1
        elif cls == "closure":
            labels = self.labels(rng)
            scalar = "real" if rng.random() < 0.2 else "int"
            pot = [rng.randint(-5, 5) for _ in labels]
            raw = [[rng.randint(0, 2) if i == j else INF if rng.random() < 0.2
                    else pot[j] - pot[i] + rng.randint(0, 3) for j in range(len(labels))]
                   for i in range(len(labels))]
            if rng.random() < 0.3:
                raw[0][-1] = rng.choice((NINF, -3))
            if scalar == "real":
                raw = [[x / 2 for x in row] for row in raw]
            argv = ["closure", self.write(key + ".txt", matrix_doc("constraints", scalar, labels, raw))]
        elif cls == "hull":
            labels = self.labels(rng)
            pts = [[rng.choice((INF, NINF)) if rng.random() < 0.1 else rng.randint(-3, 3)
                    for _ in labels] for _ in range(rng.randint(1, 4))]
            argv = ["hull", self.write(key + ".txt", points_doc("int", labels, pts))]
        elif cls in ("classify2", "classify2_bad"):
            m = self.two_point(rng, cls == "classify2")
            argv = ["classify2", self.matrix_file(rng, key, scalar="int", n=2, m=m)]
            if cls == "classify2_bad":
                exit_code, fingerprinted = 1, False
        elif cls in ("functors", "homs"):
            kind = "kcategory" if cls == "functors" else "lconvex"
            argv = [cls, self.matrix_file(rng, key + "a", kind, "int", rng.randint(2, 3)),
                    self.matrix_file(rng, key + "b", kind, "int", rng.randint(2, 3))]
        elif cls == "leq":
            kind = rng.choice(("kcategory", "lconvex"))
            n = rng.randint(2, 4)
            m, _ = self.valid(rng, n)
            path = self.matrix_file(rng, key, kind, "int", n, m)
            f, g = (rng.choice(maps_between(m, m)) for _ in range(2))
            labels = self.LABELS[:n]
            spec = [",".join("%s:%s" % (labels[i], labels[j]) for i, j in enumerate(h)) for h in (f, g)]
            argv = ["leq", path, path, "--map", spec[0], "--map", spec[1]]
            exit_code = 0 if canonical_leq(m, f, g) else 1
        elif cls in ("yoneda", "yoneda_bad"):
            labels = self.labels(rng)
            m = self.valid(rng, len(labels))[0]
            if cls == "yoneda_bad":
                m, exit_code, fingerprinted = self.broken(rng, m), 1, False
            argv = ["yoneda-check", self.matrix_file(rng, key, "kcategory", "int", len(labels), m)]
        elif cls == "render":
            argv = ["render", self.matrix_file(rng, key, "lconvex", "int", 2), "--bound", "3"]
        elif cls == "laws":
            argv = ["laws", self.LATTICES[uid], "--bound", "3"]
        else:
            argv, line = self.malformed(rng, key)
            exit_code, fingerprinted = 2, False
        return Request("%s/%d" % (cls, uid), cls, {"argv": argv, "exit": exit_code, "line": line,
                                              "fingerprinted": fingerprinted})

    def blocks(self, rng):
        return mixed_blocks(rng, self.MIX, self.BLOCKS, self.make)

    def all_blocks(self):
        return universe_blocks(self.MIX, self.make)

    def execute(self, ctx, req):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = ctx["lib"].cli.main(list(req.data["argv"]))
        return rc, out.getvalue(), err.getvalue()

    def check(self, ctx, req, out):
        rc, stdout, stderr = out
        d = req.data
        material = [rc, norm_text(stdout)] if d["fingerprinted"] else [rc]
        if rc != d["exit"]:
            return "exit %r, expected %d" % (rc, d["exit"]), material
        if d["line"] is not None and "line %d:" % d["line"] not in stderr:
            return "parse error does not name line %d" % d["line"], material
        if rc == 1 and not stdout.strip():
            return "exit 1 without a report", material
        return None, material


def make_workload(name, root):
    if name == "cli_small":
        return CliSmall(root)
    return {"dbm_build": DbmBuild, "map_search": MapSearch}[name]()


NAMES = ("dbm_build", "map_search", "cli_small")
