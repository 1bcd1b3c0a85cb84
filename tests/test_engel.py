"""Engel chains, automorphisms, inverted sets, and the Baer criterion."""

import pytest
from hypothesis import given, settings, strategies as st

from engelfit.corpus import builtin, small_std
from engelfit.engel import (AutomorphismMap, baer_membership,
                            centralizer_intersection_check,
                            commutator_descent, engel_chain, fixed_subgroup,
                            holomorph_extension, inner, j_set,
                            make_automorphism)
from engelfit.errors import (AutomorphismError, ConsistencyError,
                             PreconditionError, ResourceLimitError)
from engelfit.group import MAX_DEGREE, clear_derived, close_group, generated_by
from engelfit.perm import Permutation, parse_cycles
from engelfit.series import fitting_subgroup
from engelfit.subgrp import is_nilpotent
from tests.oracles import (commutator_descent_by_elements, commutator_with_actor,
                           non_multiplicative_pair)
from tests.test_group import alt, sym


def test_inversion_on_c5_is_order_two():
    c5 = close_group([parse_cycles("(1 2 3 4 5)", 5)])
    alpha = make_automorphism(c5, [c5.generators[0].inverse()])
    assert alpha.order == 2
    assert alpha.is_involution()


def brute_force_order(group, apply):
    """The least m >= 1 for which applying `apply` m times fixes every
    element of the group."""
    elements = group.sorted_elements()
    images, m = [apply(x) for x in elements], 1
    while images != list(elements):
        images, m = [apply(y) for y in images], m + 1
    return m


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.permutations(range(n)).map(Permutation), min_size=1, max_size=3)),
    st.data())
def test_inner_order_is_the_least_power_fixing_every_element(gens, data):
    group = generated_by(gens)
    t = data.draw(st.sampled_from(group.sorted_elements()))
    assert inner(group, t).order == brute_force_order(group, lambda x: x.conjugate(t))


def test_small_std_automorphism_orders():
    autos = [(e, name, alpha) for e in small_std() for name, alpha in e.automorphisms]
    assert len(autos) == 28
    for e, name, alpha in autos:
        assert alpha.order == 2 == brute_force_order(e.group, alpha.apply), (e.name, name)


def test_inner_transposition_on_a5_fixed_subgroup():
    a5 = alt(5)
    alpha = inner(a5, parse_cycles("(1 2)", 5))
    assert fixed_subgroup(alpha).order == 6  # (n-2)! for n = 5


def test_images_outside_group_rejected():
    a4 = alt(4)
    with pytest.raises(AutomorphismError):
        make_automorphism(a4, [parse_cycles("(1 2)", 4), a4.generators[1]])


def test_non_injective_homomorphism_rejected_by_the_bijection_check_with_pair():
    c4 = close_group([parse_cycles("(1 2 3 4)", 4)])
    # sending a generator of order 4 to an element of order 2 extends to a
    # homomorphism C4 -> C4 with a kernel of order 2, which is not injective
    with pytest.raises(AutomorphismError, match="bijection") as err:
        make_automorphism(c4, [parse_cycles("(1 3)(2 4)", 4)])
    assert err.value.pair is not None


def test_non_homomorphism_with_a_bijective_table_rejected_by_an_edge():
    # the walk's first image of each element is one of 1, a, b, ab, ba, aba
    # for a = (2 3), b = (1 2 3): six distinct values, so the table is a
    # bijection and only an edge check (such as (1 2)·(1 2) = 1 against
    # b² ≠ 1) can reject it
    s3 = generated_by([parse_cycles("(2 3)", 3), parse_cycles("(1 2)", 3)])
    assert s3.generators == (parse_cycles("(2 3)", 3), parse_cycles("(1 2)", 3))
    with pytest.raises(AutomorphismError, match="homomorphism") as err:
        make_automorphism(s3, [parse_cycles("(2 3)", 3), parse_cycles("(1 2 3)", 3)])
    assert err.value.pair[1] in s3.generators


def test_non_bijective_rejected():
    v4 = generated_by([parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)])
    with pytest.raises(AutomorphismError):
        make_automorphism(v4, [v4.generators[0], v4.generators[0]])


def test_every_small_std_automorphism_is_multiplicative_on_all_pairs():
    checked = 0
    for entry in small_std():
        if entry.group.order <= 360:
            for name, alpha in entry.automorphisms:
                assert non_multiplicative_pair(alpha) is None, (entry.name, name)
                checked += 1
    assert checked == 23


def test_the_pair_oracle_finds_a_table_that_is_not_multiplicative():
    s3 = sym(3)
    t12, t13 = parse_cycles("(1 2)", 3), parse_cycles("(1 3)", 3)
    mapping = {g: g for g in s3.elements()}
    mapping[t12], mapping[t13] = t13, t12  # a bijection, not a homomorphism
    assert non_multiplicative_pair(AutomorphismMap(s3, mapping, 2)) is not None


def _graph_of_images(group, images):
    """⟨(s, f(s))⟩ on 2n points, s on 1..n and f(s) on n+1..2n: the graph of
    f when the generator images define a homomorphism.  Returns the closure
    as (first, second) projection pairs."""
    n = group.degree
    graph = close_group([Permutation(s.images + tuple(n + i for i in fs.images))
                         for s, fs in zip(group.generators, images)])
    return [(Permutation(p.images[:n]), Permutation(i - n for i in p.images[n:]))
            for p in graph.elements()]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.permutations(range(n)).map(Permutation), min_size=1, max_size=3)),
    st.data())
def test_make_automorphism_accepts_exactly_the_graphs_of_automorphisms(gens, data):
    # the images define an automorphism iff the closed graph has one pair
    # per element of G and its second projection is all of G
    group = generated_by(gens)
    members = st.sampled_from(group.sorted_elements())
    images = [data.draw(members) for _ in group.generators]
    graph = _graph_of_images(group, images)
    is_automorphism = (len(graph) == group.order
                       and {y for _, y in graph} == group.elements())
    try:
        alpha = make_automorphism(group, images)
    except AutomorphismError:
        assert not is_automorphism
        return
    assert is_automorphism
    assert alpha.mapping == dict(graph)


def test_inner_requires_normalizing_element():
    a4 = alt(4)
    assert inner(a4, parse_cycles("(1 2)", 4)).order == 2  # normalizes
    c4 = close_group([parse_cycles("(1 2 3 4)", 4)])
    with pytest.raises(AutomorphismError):
        inner(c4, parse_cycles("(1 2)", 4))  # does not normalize C4


def test_commutator_with_central_actor_is_identity():
    d4 = close_group([parse_cycles("(1 2 3 4)", 4), parse_cycles("(1 3)", 4)])
    z = parse_cycles("(1 3)(2 4)", 4)  # central in D4
    for g in d4.sorted_elements():
        assert commutator_with_actor(d4, g, z).is_identity() == (g * z == z * g)
    assert commutator_with_actor(d4, z, parse_cycles("(1 2 3 4)", 4)).is_identity()


def test_identity_automorphism_gives_trivial_commutators():
    s3 = sym(3)
    ident = make_automorphism(s3, list(s3.generators))
    assert ident.is_identity()
    for g in s3.sorted_elements():
        assert commutator_with_actor(s3, g, ident).is_identity()


def test_involution_power_identity():
    # [g,_j a] = [g, a]^((-2)^(j-1)) for involutory a
    cases = [(alt(5), inner(alt(5), parse_cycles("(1 2)", 5)))]
    c5 = close_group([parse_cycles("(1 2 3 4 5)", 5)])
    cases.append((c5, make_automorphism(c5, [c5.generators[0].inverse()])))
    for group, alpha in cases:
        assert alpha.is_involution()
        for g in group.sorted_elements():
            c = commutator_with_actor(group, g, alpha)
            iterated = c
            for j in range(2, 6):
                iterated = commutator_with_actor(group, iterated, alpha)
                assert iterated == c ** ((-2) ** (j - 1))


def test_engel_chain_s3_with_three_cycle():
    s3 = sym(3)
    chain = engel_chain(s3, parse_cycles("(1 2 3)", 3))
    # exhaustive scan: the first commutator set lands inside A3 and
    # generates it; the second collapses to the identity
    assert chain.generated[0].order == 3
    assert chain.sets[2] == frozenset([Permutation.identity(3)])
    assert chain.reaches_identity()
    assert baer_membership(s3, parse_cycles("(1 2 3)", 3))
    assert fitting_subgroup(s3).contains(parse_cycles("(1 2 3)", 3))


def test_engel_chain_s3_with_transposition():
    s3 = sym(3)
    chain = engel_chain(s3, parse_cycles("(1 2)", 3))
    assert all(h.order == 3 for h in chain.generated)
    assert chain.stable_k.order == 3
    assert commutator_descent(s3, parse_cycles("(1 2)", 3))[-1].order == 3
    assert not chain.reaches_identity()
    assert not baer_membership(s3, parse_cycles("(1 2)", 3))


def test_engel_chain_abelian_collapses_immediately():
    c6 = close_group([parse_cycles("(1 2 3 4 5 6)", 6)])
    for x in c6.sorted_elements():
        chain = engel_chain(c6, x)
        assert chain.sets[1] == frozenset([Permutation.identity(6)])
        assert chain.stable_k.is_trivial()
        assert commutator_descent(c6, x)[-1].is_trivial()
        # {1} is seen at the cap itself, with no further step to prove it stable
        assert baer_membership(c6, x, k_cap=1) is True
        assert engel_chain(c6, x, k_cap=1).reaches_identity()


def test_engel_chain_set_recurrence():
    # E_0 = G and E_{k+1} = {[e, x] : e in E_k}
    s4 = sym(4)
    x = parse_cycles("(1 2 3 4)", 4)
    chain = engel_chain(s4, x)
    assert chain.sets[0] == s4.elements()
    for k in range(len(chain.sets) - 1):
        expected = frozenset(commutator_with_actor(s4, e, x) for e in chain.sets[k])
        assert chain.sets[k + 1] == expected
        assert chain.sets[k + 1] < chain.sets[k]  # strict descent
    last = chain.sets[-1]
    assert frozenset(commutator_with_actor(s4, e, x) for e in last) == last
    assert chain.stable_k is chain.generated[-1]


def test_commutator_set_leaving_its_predecessor_is_an_engine_bug(monkeypatch):
    # conjugating by a point outside {1,2,3} does not normalize S3, so
    # the "commutators" leave the group and the descent check must fire.
    # E_1 comes from the class table, so the defect shows from E_2 on:
    # E_1 = {1, (1 3 2)} is not {1} for x = (1 2 3)
    import engelfit.engel as engel_mod
    clear_derived()  # no walk or descent of s3 cached by an earlier test
    s3 = close_group([parse_cycles("(1 2 3)", 4), parse_cycles("(1 2)", 4)])
    x = parse_cycles("(1 2 3)", 4)
    assert len(engel_mod._engel_sets(s3, x, None)[1]) == 2
    clear_derived()
    outside = parse_cycles("(1 4)", 4)
    monkeypatch.setattr(engel_mod, "_commutator_fn",
                        lambda group, actor: lambda g: g.inverse() * g.conjugate(outside))
    with pytest.raises(ConsistencyError, match="left the previous set"):
        engel_chain(s3, x)
    with pytest.raises(ConsistencyError, match="left the previous set"):
        baer_membership(s3, x)
    # the descent forms its commutators through the same function
    with pytest.raises(ConsistencyError):
        commutator_descent(s3, x)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.permutations(range(n)).map(Permutation), min_size=1, max_size=3)),
    st.data())
def test_descent_and_generated_chain_match_the_all_elements_routes(gens, data):
    # the descent from generator commutators and the chain grown from the
    # set below, against the all-elements descent and from-scratch closures
    clear_derived()
    group = generated_by(gens)
    t = data.draw(st.sampled_from(group.sorted_elements()))
    actor = inner(group, t) if data.draw(st.booleans()) else t
    descent = commutator_descent(group, actor)
    oracle = commutator_descent_by_elements(group, actor)
    assert [h.elements() for h in descent] == [h.elements() for h in oracle]
    chain = engel_chain(group, actor)
    assert len(chain.generated) == len(chain.sets) - 1
    for k, h in enumerate(chain.generated):
        assert h.elements() == generated_by(chain.sets[k + 1], degree=group.degree).elements()
    # each set is the commutators of the one before, whichever route
    # formed it (the class table for E_1 of an inner actor), and the last
    # set is stable
    assert chain.sets[0] == group.elements()
    for k, current in enumerate(chain.sets):
        image = {commutator_with_actor(group, e, actor) for e in current}
        assert image == (chain.sets[k + 1] if k + 1 < len(chain.sets) else current)


def test_engel_chain_generated_descending_and_subnormal():
    from engelfit.subgrp import is_subnormal
    s4 = sym(4)
    for x in s4.conjugacy_classes().representatives:
        chain = engel_chain(s4, x)
        for earlier, later in zip(chain.generated, chain.generated[1:]):
            assert later.is_subset_of(earlier)
        for h in chain.generated:
            assert is_subnormal(h, s4)


def test_engel_chain_k_cap_exhaustion():
    with pytest.raises(ResourceLimitError):
        engel_chain(sym(3), parse_cycles("(1 2)", 3), k_cap=1)


def test_baer_on_nilpotent_group_always_true():
    d4 = close_group([parse_cycles("(1 2 3 4)", 4), parse_cycles("(1 3)", 4)])
    assert is_nilpotent(d4)
    for x in d4.sorted_elements():
        assert baer_membership(d4, x)


def test_baer_matches_fitting_on_s4():
    s4 = sym(4)
    f = fitting_subgroup(s4)
    for x in s4.sorted_elements():
        assert baer_membership(s4, x) == f.contains(x)


def test_j_set_of_a5_with_transposition():
    a5 = alt(5)
    alpha = inner(a5, parse_cycles("(1 2)", 5))
    report = j_set(a5, alpha)
    assert len(report.j_elements) == 7  # 2n - 3 for n = 5
    assert report.two_part == 2
    assert report.generated_j.same_elements(a5)
    assert report.fixed_points.order == 6
    for g in report.j_elements:
        assert g.order() % 2 == 1
        assert alpha.apply(g) == g.inverse()


def test_j_set_equals_tail_commutator_sets():
    a5 = alt(5)
    alpha = inner(a5, parse_cycles("(1 2)", 5))
    report = j_set(a5, alpha)
    chain = engel_chain(a5, alpha)
    k = report.two_exponent
    assert k == 1
    for j in chain.indices_attained_beyond(k):
        assert chain.sets[j] == report.j_elements
    for j in range(1, len(chain.sets)):
        assert report.j_elements <= chain.sets[j]


def test_j_set_inversion_on_c5():
    c5 = close_group([parse_cycles("(1 2 3 4 5)", 5)])
    alpha = make_automorphism(c5, [c5.generators[0].inverse()])
    report = j_set(c5, alpha)
    assert report.j_elements == c5.elements()
    assert report.generated_j.same_elements(c5)
    assert report.two_part == 1


def test_j_set_requires_involution():
    s3 = sym(3)
    ident = make_automorphism(s3, list(s3.generators))
    with pytest.raises(PreconditionError):
        j_set(s3, ident)
    a4 = alt(4)
    rot = inner(a4, parse_cycles("(1 2 3)", 4))
    with pytest.raises(PreconditionError):
        j_set(a4, rot)


def test_centralizer_intersection_a5():
    a5 = alt(5)
    alpha = inner(a5, parse_cycles("(1 2)", 5))
    check = centralizer_intersection_check(a5, alpha)
    assert check.ok
    assert check.intersection.is_trivial()
    assert check.expected.is_trivial()


def test_centralizer_intersection_c3_inversion():
    c3 = close_group([parse_cycles("(1 2 3)", 3)])
    alpha = make_automorphism(c3, [c3.generators[0].inverse()])
    check = centralizer_intersection_check(c3, alpha)
    assert check.ok
    assert check.intersection.is_trivial()


def test_centralizer_intersection_requires_whole_descent():
    # conjugation by the central involution of SL(2,5) is the identity map,
    # so [G, a] is trivial and the precondition filter rejects the case
    sl25 = builtin("sl2(5)").group
    central = next(z for z in sorted(sl25.elements())
                   if z.order() == 2 and not z.is_identity())
    alpha = inner(sl25, central)
    assert alpha.is_identity()
    with pytest.raises(PreconditionError):
        centralizer_intersection_check(sl25, alpha)


def test_descent_stable_term_examples():
    s7 = builtin("symmetric(7)").group
    alpha = inner(s7, parse_cycles("(1 2)", 7))
    descent = commutator_descent(s7, alpha)
    assert descent[-1].order == 2520  # stabilizes at the even half


def test_holomorph_extension_c3_inversion():
    c3 = close_group([parse_cycles("(1 2 3)", 3)])
    alpha = make_automorphism(c3, [c3.generators[0].inverse()])
    ext = holomorph_extension(c3, alpha)
    assert ext.order == 6
    assert not all(a * b == b * a for a in ext.generators for b in ext.generators)


def test_holomorph_extension_c5_inversion():
    c5 = close_group([parse_cycles("(1 2 3 4 5)", 5)])
    alpha = make_automorphism(c5, [c5.generators[0].inverse()])
    assert holomorph_extension(c5, alpha).order == 10


def test_holomorph_extension_inner_actor_closure():
    # translations never produce the conjugation permutation, so the
    # closure is |G| * order(alpha) even for an inner automorphism
    a4 = alt(4)
    alpha = inner(a4, parse_cycles("(1 2 3)", 4))
    assert holomorph_extension(a4, alpha).order == 36


def test_holomorph_extension_cap():
    # the degree |A7| = 2520 is over MAX_DEGREE, so the extension is
    # rejected by its size before any translation is built
    a7 = builtin("alternating(7)").group
    alpha = inner(a7, parse_cycles("(1 2)", 7))
    with pytest.raises(ResourceLimitError, match=f"degree 2520 and order 5040; "
                                                 f"the caps are degree {MAX_DEGREE} ") as err:
        holomorph_extension(a7, alpha)
    assert err.value.partial_count == 0
