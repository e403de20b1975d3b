"""Acceptance suite.

Each test prints one PASS/FAIL line on the real stdout (bypassing
capture) so the verdict per criterion is always visible.
"""

import random
import time
from decimal import Decimal
from itertools import product

from lcdual.scalars import NEG_INF, POS_INF, TRUE, FALSE, fin
from lcdual.scalars import ext_add, ext_sub
from lcdual.lattices import get_lattice, law_violations
from lcdual.categories import (
    VCategory, make_presheaf, validate_category, enumerate_functors,
    canonical_leq, verify_yoneda, is_presheaf, yoneda,
)
from lcdual.lconvex import (
    closure, grid_members, member, canonical_points, make_lcs,
)
from lcdual.duality import (
    cat_to_lcs, lcs_to_cat, roundtrip_cat, roundtrip_lcs,
    make_homomorphism, is_homomorphism, pullback,
    functor_to_hom, hom_to_functor, hom_canonical_leq, enumerate_homs,
)
from lcdual.classify import exhaustive_partition, classify_two_point, FAMILIES

from conftest import kcat, random_valid_lcs
from test_classify import FAMILY_MATRICES, grid_disagreements
from test_lconvex import lcs, pt

INF = float("inf")
NINF = float("-inf")


VERDICT_LINES = []


def verdict(number, label, ok, detail=""):
    line = "criterion %d (%s): %s" % (number, label, "PASS" if ok else "FAIL")
    if detail:
        line += " — " + detail
    VERDICT_LINES.append(line)
    print(line)
    assert ok, line


# --- independent oracle helpers (deliberately re-implemented here) -------

def oracle_sub(y, x):
    """Extended y - x, written from the tables, independent of the library."""
    if x == INF:
        return NINF
    if x == NINF:
        return NINF if y == NINF else INF
    if y in (INF, NINF):
        return y
    return y - x


def oracle_satisfies(matrix_nums, point_nums):
    n = len(point_nums)
    for i in range(n):
        for j in range(n):
            if matrix_nums[i][j] < oracle_sub(point_nums[j], point_nums[i]):
                return False
    return True


def nums(D):
    return [[D.bound(v, w) for w in D.index] for v in D.index]


def max_finite(matrix_nums, default=1):
    vals = [abs(x) for row in matrix_nums for x in row if x not in (INF, NINF)]
    return int(max(vals)) if vals else default


EXT7 = [NEG_INF] + [fin(v) for v in range(-2, 3)] + [POS_INF]


def all_two_by_two():
    for cells in product(EXT7, repeat=4):
        yield ((cells[0], cells[1]), (cells[2], cells[3]))


def random_categories(seed, count, sizes, entry_bound=3):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.choice(sizes)
        out.append(random_valid_lcs(rng, n, entry_bound))
    return out


def test_criterion_1_lattice_laws():
    start = time.monotonic()
    bad = []
    for name in ("two", "kbar", "kbar_plus", "kbar_plus_cart"):
        bad.extend(law_violations(get_lattice(name), bound=3))
    elapsed = time.monotonic() - start
    verdict(1, "lattice law suite", not bad and elapsed < 5.0,
            "0 violations over {-inf,-3..3,inf}, %.2fs" % elapsed)


def test_criterion_2_extension_tables():
    t = fin(4)
    s = fin(7)
    kp = get_lattice("kbar_plus")
    cells = [
        # x + y table, rows x in {-inf, s, inf}, columns y likewise
        (ext_add(NEG_INF, NEG_INF), NEG_INF),
        (ext_add(NEG_INF, t), NEG_INF),
        (ext_add(NEG_INF, POS_INF), POS_INF),
        (ext_add(s, NEG_INF), NEG_INF),
        (ext_add(s, t), fin(11)),
        (ext_add(s, POS_INF), POS_INF),
        (ext_add(POS_INF, NEG_INF), POS_INF),
        (ext_add(POS_INF, t), POS_INF),
        (ext_add(POS_INF, POS_INF), POS_INF),
        # y - x table, columns x in {-inf, s, inf}
        (ext_sub(NEG_INF, NEG_INF), NEG_INF),
        (ext_sub(t, NEG_INF), POS_INF),
        (ext_sub(POS_INF, NEG_INF), POS_INF),
        (ext_sub(NEG_INF, s), NEG_INF),
        (ext_sub(t, s), fin(-3)),
        (ext_sub(POS_INF, s), POS_INF),
        (ext_sub(NEG_INF, POS_INF), NEG_INF),
        (ext_sub(t, POS_INF), NEG_INF),
        (ext_sub(POS_INF, POS_INF), NEG_INF),
        # truncated tables on the nonnegative carrier
        (kp.tensor(s, t), fin(11)),
        (kp.tensor(s, POS_INF), POS_INF),
        (kp.tensor(POS_INF, t), POS_INF),
        (kp.tensor(POS_INF, POS_INF), POS_INF),
        (kp.hom(s, t), fin(0)),
        (kp.hom(t, s), fin(3)),
        (kp.hom(s, POS_INF), POS_INF),
        (kp.hom(POS_INF, t), fin(0)),
        (kp.hom(POS_INF, POS_INF), fin(0)),
    ]
    bad = [i for i, (got, want) in enumerate(cells) if got != want]
    verdict(2, "forced extension tables", not bad,
            "%d cells exact" % len(cells))


def test_criterion_3_object_duality():
    start = time.monotonic()
    L = get_lattice("kbar")
    failures = 0
    checked = 0
    rng = random.Random(303)
    for m in all_two_by_two():
        C = VCategory(L, ("v", "w"), m)
        if validate_category(C):
            continue
        checked += 1
        if not roundtrip_cat(C) or not roundtrip_lcs(cat_to_lcs(C)):
            failures += 1
    two_by_two = checked

    for D in random_categories(304, 200, (3, 4, 5)):
        checked += 1
        A = lcs_to_cat(D)
        if not roundtrip_cat(A) or not roundtrip_lcs(D):
            failures += 1
            continue
        # grid-membership equality at the stated bound, sampled (full
        # enumeration over the stated bound is infeasible above 2 indices)
        E = cat_to_lcs(lcs_to_cat(D))
        bound = 3 * len(D.index) * max_finite(nums(D))
        values = [NINF, INF] + [rng.randint(-bound, bound) for _ in range(12)]
        relabel = dict(zip(D.index, E.index))
        dn, en = nums(D), nums(E)
        for ptv in (tuple(rng.choice(values) for _ in D.index) for _ in range(500)):
            if oracle_satisfies(dn, ptv) != oracle_satisfies(en, ptv):
                failures += 1
                break
        del relabel
    elapsed = time.monotonic() - start
    verdict(3, "object duality round trips", failures == 0 and elapsed < 30.0,
            "%d valid 2x2 + 200 random (3-5 pts), %d failures, %.2fs"
            % (two_by_two, failures, elapsed))


def family_representatives():
    reps = []
    for family in FAMILIES:
        rows = FAMILY_MATRICES[family]
        if family == "HalfPlane":
            rows = [[0, 1], [INF, 0]]      # s = 1
        elif family == "Band":
            rows = [[0, 1], [2, 0]]        # s = 1, t = 2
        reps.append((family, kcat(rows, labels=("v", "w"))))
    return reps


def test_criterion_4_map_duality():
    reps = family_representatives()
    failures = []
    for name_a, A in reps:
        for name_b, B in reps:
            fs = enumerate_functors(A, B)
            D, E = cat_to_lcs(B), cat_to_lcs(A)
            hs = enumerate_homs(D, E)
            if len(fs) != len(hs):
                failures.append("count mismatch %s -> %s" % (name_a, name_b))
                continue
            image = set()
            for F in fs:
                phi = functor_to_hom(F)
                image.add(phi.object_map)
                back = hom_to_functor(phi)
                if any(back("pi_" + a) != "pi_" + F(a) for a in A.objects):
                    failures.append("functor round trip %s -> %s" % (name_a, name_b))
            if image != {phi.object_map for phi in hs}:
                failures.append("not a bijection %s -> %s" % (name_a, name_b))
            for phi in hs:
                G = hom_to_functor(phi)
                psi = functor_to_hom(G)
                want = tuple(("pi_" + w, "pi_" + phi(w)) for w in E.index)
                if psi.object_map != want:
                    failures.append("hom round trip %s -> %s" % (name_a, name_b))
    verdict(4, "map duality bijections", not failures,
            failures[0] if failures else "100 ordered family pairs, all matched")


def test_criterion_5_ordering_duality():
    reps = family_representatives()
    failures = 0
    pairs = 0
    for _, A in reps:
        for _, B in reps:
            fs = enumerate_functors(A, B)
            for F in fs:
                for G in fs:
                    pairs += 1
                    if canonical_leq(F, G) != hom_canonical_leq(
                            functor_to_hom(F), functor_to_hom(G)):
                        failures += 1
            D, E = cat_to_lcs(B), cat_to_lcs(A)
            hs = enumerate_homs(D, E)
            for phi in hs:
                for psi in hs:
                    pairs += 1
                    if hom_canonical_leq(phi, psi) != canonical_leq(
                            hom_to_functor(phi), hom_to_functor(psi)):
                        failures += 1
    verdict(5, "ordering duality", failures == 0,
            "%d ordered map pairs, %d mismatches" % (pairs, failures))


def test_criterion_6_homomorphism_characterization():
    rng = random.Random(606)
    disagreements = 0
    for _ in range(100):
        n_d, n_e = rng.randint(1, 3), rng.randint(1, 3)
        D = random_valid_lcs(rng, n_d)
        E = random_valid_lcs(rng, n_e, labels=("p", "q", "r")[:n_e])
        f = {w: rng.choice(D.index) for w in E.index}
        phi = make_homomorphism(D, E, f)
        matrix_ok = is_homomorphism(phi)
        bound = max(3, max_finite(nums(D)))
        pullback_ok = all(member(E, pullback(phi, p))
                          for p in grid_members(D, bound))
        pullback_ok = pullback_ok and all(member(E, pullback(phi, p))
                                          for p in canonical_points(D))
        if matrix_ok != pullback_ok:
            disagreements += 1

    thin = lcs([[0, 1], [1, 0]])
    thick = lcs([[0, 2], [2, 0]])
    ident = {"v": "v", "w": "w"}
    fig_ok = (is_homomorphism(make_homomorphism(thin, thick, ident))
              and not is_homomorphism(make_homomorphism(thick, thin, ident)))
    verdict(6, "homomorphism characterization",
            disagreements == 0 and fig_ok,
            "100 random triples, %d disagreements; band embedding ok=%s"
            % (disagreements, fig_ok))


def random_preorder(rng, n):
    labels = tuple("abcde"[:n])
    rel = {(a, a) for a in labels}
    for a in labels:
        for b in labels:
            if a != b and rng.random() < 0.4:
                rel.add((a, b))
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c in labels:
                if (b, c) in rel and (a, c) not in rel:
                    rel.add((a, c))
                    changed = True
    hom = tuple(tuple(TRUE if (a, b) in rel else FALSE for b in labels)
                for a in labels)
    return VCategory(get_lattice("two"), labels, hom), rel


def lower_sets(labels, rel):
    out = []
    for bits in product((False, True), repeat=len(labels)):
        S = {a for a, keep in zip(labels, bits) if keep}
        if all(a in S for b in S for a in labels if (a, b) in rel):
            out.append(frozenset(S))
    return out


def test_criterion_7_yoneda():
    failures = 0
    checked = 0
    L = get_lattice("kbar")
    for m in all_two_by_two():
        C = VCategory(L, ("v", "w"), m)
        if validate_category(C):
            continue
        checked += 1
        if not verify_yoneda(C):
            failures += 1
    for D in random_categories(707, 200, (3, 4, 5)):
        checked += 1
        if not verify_yoneda(lcs_to_cat(D)):
            failures += 1
    for _, A in family_representatives():
        checked += 1
        if not verify_yoneda(A):
            failures += 1

    rng = random.Random(708)
    preorder_fail = 0
    for _ in range(30):
        C, rel = random_preorder(rng, rng.randint(1, 5))
        if not verify_yoneda(C):
            preorder_fail += 1
            continue
        labels = C.objects
        presheaf_sets = []
        for values in product((FALSE, TRUE), repeat=len(labels)):
            p = make_presheaf(C, dict(zip(labels, values)))
            if is_presheaf(p):
                presheaf_sets.append(frozenset(
                    a for a, v in zip(labels, values) if v == TRUE))
        if sorted(presheaf_sets, key=sorted) != sorted(lower_sets(labels, rel),
                                                       key=sorted):
            preorder_fail += 1
            continue
        for b in labels:
            down_b = frozenset(a for a in labels if (a, b) in rel)
            y_b = yoneda(C, b)
            if frozenset(a for a in labels if y_b(a) == TRUE) != down_b:
                preorder_fail += 1
                break
    verdict(7, "embedding equalities", failures == 0 and preorder_fail == 0,
            "%d kbar categories, 30 preorders; %d failures"
            % (checked, failures + preorder_fail))


def test_criterion_8_classification_completeness():
    report = exhaustive_partition(2)
    bad, valid = grid_disagreements()
    ok = (not bad
          and all(report["counts"][f] > 0 for f in FAMILIES)
          and sum(report["counts"].values()) == valid
          and report["invalid"] == 7 ** 4 - valid)
    for family, rows in FAMILY_MATRICES.items():
        shape = classify_two_point(kcat(rows).hom)
        if shape is None or shape.family != family:
            ok = False
    verdict(8, "classification completeness", ok,
            "%d valid matrices over bound 2, ten families; %d disagree with the plain law check"
            % (sum(report["counts"].values()), len(bad)))


def test_criterion_9_closure_oracle():
    rng = random.Random(909)
    pool = [NEG_INF, POS_INF] + [fin(v) for v in range(-3, 4)]
    disagreements = 0
    not_idempotent = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        labels = tuple("vwxy"[:n])
        rows = tuple(tuple(rng.choice(pool) for _ in range(n)) for _ in range(n))
        D = closure(make_lcs(labels, rows))

        again = closure(D)
        if again.dbm != D.dbm:
            not_idempotent += 1

        # c' = c with diagonals clamped to at most 0
        cn = [[rows[i][j] for j in range(n)] for i in range(n)]
        for i in range(n):
            cn[i][i] = min(cn[i][i], 0)
        dn = nums(D)
        bound = 3 * n * max_finite(cn)
        if (2 * bound + 3) ** n <= 30000:
            points = product([NINF] + list(range(-bound, bound + 1)) + [INF],
                             repeat=n)
        else:
            corner_vals = [NINF, -bound, 0, bound, INF]
            corners = list(product(corner_vals, repeat=n))
            canon = [tuple(row) for row in dn] + [tuple(row) for row in cn]
            sampled = [tuple(rng.choice([NINF, INF]
                                        if rng.random() < 0.2
                                        else [rng.randint(-bound, bound)])
                             for _ in range(n)) for _ in range(3000)]
            points = corners + canon + sampled
        for ptv in points:
            if oracle_satisfies(dn, ptv) != oracle_satisfies(cn, ptv):
                disagreements += 1
                break
    # the real kind against an exact oracle: a one-decimal matrix, times 10,
    # is an int matrix, and scaling commutes with closure
    real_disagreements = 0
    pool = [NEG_INF, POS_INF] + list(range(-30, 91))
    for _ in range(200):
        n = rng.randint(1, 5)
        labels = tuple("vwxyz"[:n])
        tenths = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
        rows = [[x if x in (INF, NINF) else Decimal(x).scaleb(-1) for x in row] for row in tenths]
        got = closure(make_lcs(labels, rows, "real")).dbm
        want = closure(make_lcs(labels, tenths)).dbm
        if [[x if x in (INF, NINF) else x.scaleb(1) for x in row] for row in got] != list(map(list, want)):
            real_disagreements += 1
    verdict(9, "closure oracle",
            disagreements == 0 and not_idempotent == 0 and real_disagreements == 0,
            "200 random constraint matrices; %d disagreements, %d idempotence failures; "
            "200 one-decimal real matrices; %d disagreements with the int closure of 10x"
            % (disagreements, not_idempotent, real_disagreements))
