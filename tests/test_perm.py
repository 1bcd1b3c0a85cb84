"""Permutation arithmetic: parsing, composition conventions, orders."""

import pickle
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from engelfit.errors import ParseError
from engelfit.perm import (Permutation, commutator, conjugate_all, format_cycles,
                           p_part, parse_cycles, right_multiply)


def test_parse_basic_cycles():
    p = parse_cycles("(1 2 3)(4 5)", 5)
    # point 1 -> 2, 2 -> 3, 3 -> 1, 4 -> 5, 5 -> 4
    assert p.images == (1, 2, 0, 4, 3)


def test_parse_identity():
    p = parse_cycles("()", 4)
    assert p.is_identity()
    assert p.degree == 4


def test_parse_repeated_point():
    with pytest.raises(ParseError, match="repeated point 2"):
        parse_cycles("(1 2 2)", 3)


def test_parse_point_exceeding_degree():
    with pytest.raises(ParseError, match="point 9 out of range"):
        parse_cycles("(1 9)", 5)


def test_parse_malformed():
    with pytest.raises(ParseError):
        parse_cycles("(1 2", 3)
    with pytest.raises(ParseError):
        parse_cycles("1 2 3", 3)
    with pytest.raises(ParseError):
        parse_cycles("(1 a)", 3)


def test_parse_comma_separated_and_crlf_tolerance():
    assert parse_cycles("(1, 2, 3)", 3) == parse_cycles("(1 2 3)", 3)


def test_involution_squared_is_identity():
    t = parse_cycles("(1 2)", 2)
    assert (t * t).is_identity()


def _mult_oracle(p, q):
    """Independent product: q after p, by chasing each point."""
    return tuple(q.images[p.images[i]] for i in range(p.degree))


def test_commutator_of_three_cycle_and_transposition():
    g = parse_cycles("(1 2 3)", 3)
    h = parse_cycles("(1 2)", 3)
    # oracle: direct four-term product g^-1 h^-1 g h
    gi, hi = g.inverse(), h.inverse()
    expected = _mult_oracle(Permutation(_mult_oracle(Permutation(_mult_oracle(gi, hi)), g)), h)
    c = commutator(g, h)
    assert c.images == expected
    assert c.order() == 3
    assert set(c.moved_points()) <= {0, 1, 2}


def test_self_conjugation_is_identity_action():
    for text in ["(1 2)", "(1 2 3)", "(1 3)(2 4)"]:
        g = parse_cycles(text, 4)
        assert g.conjugate(g) == g


def test_element_orders_and_p_parts():
    g = parse_cycles("(1 2)(3 4 5)", 5)
    assert g.order() == 6
    assert p_part(g, 2) == 2
    assert p_part(g, 3) == 3
    assert parse_cycles("()", 5).order() == 1
    assert p_part(parse_cycles("()", 5), 2) == 1
    four = parse_cycles("(1 2 3 4)", 4)
    assert four.order() == 4
    assert p_part(four, 2) == 4


def test_p_part_requires_prime():
    with pytest.raises(ValueError):
        p_part(parse_cycles("(1 2)", 2), 4)


def test_degree_mismatch_raises():
    with pytest.raises(ValueError):
        parse_cycles("(1 2)", 2) * parse_cycles("(1 2)", 3)
    with pytest.raises(ValueError, match="degree mismatch: 1 vs 2"):
        Permutation.identity(1) * Permutation.identity(2)
    with pytest.raises(ValueError, match="degree mismatch: 2 vs 1"):
        Permutation.identity(2) * Permutation.identity(1)


def test_degree_one_product_is_a_permutation():
    e = Permutation.identity(1)
    product = e * e
    assert isinstance(product, Permutation)
    assert product.images == (0,)
    assert product == e and hash(product) == hash(e)
    assert (e ** 5).images == (0,)


perms = st.permutations(range(6)).map(Permutation)


@given(perms, perms, perms)
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(perms, perms)
def test_inverse_antihomomorphism(a, b):
    assert (a * b).inverse() == b.inverse() * a.inverse()


@given(perms)
def test_format_parse_round_trip(p):
    assert parse_cycles(format_cycles(p), p.degree) == p


CANONICAL_STRINGS = ["()", "(1 2)", "(1 2 3)(4 5)", "(1 3 5)(2 4)",
                     "(2 6)(3 5)", "(1 4)(2 5)(3 6)", "(1 2 3 4 5 6)"]


def test_parse_then_format_identity_on_canonical_corpus():
    for text in CANONICAL_STRINGS:
        assert format_cycles(parse_cycles(text, 6)) == text


@given(perms)
def test_inverse_cancels(p):
    assert (p * p.inverse()).is_identity()
    assert p ** -1 == p.inverse()
    assert p ** p.order() == Permutation.identity(p.degree)


@given(perms, perms)
def test_conjugate_matches_definition(g, h):
    assert g.conjugate(h) == h.inverse() * g * h


@given(perms, perms)
def test_compose_applies_left_then_right(g, h):
    for i in range(1, 7):
        assert (g * h).act(i) == h.act(g.act(i))


def test_trusted_constructor_returns_one_object_per_image_tuple():
    p = parse_cycles("(1 2 3)(4 5)", 5)
    e = Permutation.identity(5)
    assert (e * p) is (p * e) is p.inverse().inverse()
    assert (e * p) is not p  # the validated constructor does not intern


def _interned(images):
    return Permutation.identity(len(images)) * Permutation(images)


@pytest.mark.parametrize("route", ["validated", "pickled", "before-clear"])
def test_a_permutation_outside_the_intern_table_equals_the_interned_one(route):
    from engelfit.group import clear_derived

    images = (1, 2, 0, 4, 3)
    if route == "validated":
        other = Permutation(images)
    elif route == "pickled":
        other = pickle.loads(pickle.dumps(_interned(images)))
    else:
        other = _interned(images)
        clear_derived()
    interned = _interned(images)
    assert other is not interned
    assert other == interned and interned == other
    assert not (other != interned) and hash(other) == hash(interned)
    assert other in {interned} and interned in {other}
    assert {other: "v"}[interned] == "v" and {interned: "v"}[other] == "v"
    e = Permutation.identity(5)
    assert frozenset([other, e]) == frozenset([interned, e])
    assert other * e == interned and other.act(1) == interned.act(1) == 2


# The kernel against a plain-tuple reference, on both sides of the degree
# (256) up to which images are held as bytes.

def _ref_mul(a, b):
    return tuple(b[i] for i in a)


def _ref_inverse(a):
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


def _ref_conjugate(g, h):
    return _ref_mul(_ref_mul(_ref_inverse(h), g), h)


def _ref_pow(a, k):
    result = tuple(range(len(a)))
    for _ in range(abs(k)):
        result = _ref_mul(result, a)
    return result if k >= 0 else _ref_inverse(result)


def _ref_order(a):
    """lcm of the orbit lengths, each found by chasing one point."""
    result = 1
    for i in range(len(a)):
        length, j = 1, a[i]
        while j != i:
            length, j = length + 1, a[j]
        result = lcm(result, length)
    return result


EDGE_DEGREES = (1, 2, 255, 256, 257)
degrees = st.one_of(st.sampled_from(EDGE_DEGREES), st.integers(1, 300))


def _same_degree(k):
    return degrees.flatmap(
        lambda n: st.tuples(*[st.permutations(range(n)).map(tuple)] * k))


def _rotation(n):
    return tuple(range(1, n)) + (0,)


@settings(max_examples=150, deadline=None)
@given(_same_degree(3), st.integers(-4, 4))
@example((_rotation(256), tuple(range(256)), _rotation(256)[::-1]), -3)
@example((_rotation(257), tuple(range(257)), _rotation(257)[::-1]), -3)
def test_kernel_matches_the_tuple_reference(images, k):
    a, b, c = images
    p, q, r = map(Permutation, images)
    assert p.images == a and p.degree == len(a)
    assert (p * q).images == _ref_mul(a, b)
    assert p.inverse().images == _ref_inverse(a)
    assert p.conjugate(q).images == _ref_conjugate(a, b)
    assert (p ** k).images == _ref_pow(a, k)
    assert p.order() == _ref_order(a)
    assert (p < q) == (a < b) and (p <= q) == (a <= b)
    assert (p == q) == (a == b)
    assert p.is_identity() == (a == tuple(range(len(a))))
    # a computed (interned) permutation against a constructed one
    computed = (p * q) * q.inverse()
    assert computed is not p
    assert computed == p and p == computed and hash(computed) == hash(p)
    assert {computed: 1}[p] == 1
    copy = pickle.loads(pickle.dumps(computed))
    assert copy is not computed and copy == p and hash(copy) == hash(p)
    assert right_multiply([p, q, r], q) == [p * q, q * q, r * q]
    assert conjugate_all([p, q, r], r) == [x.conjugate(r) for x in (p, q, r)]
    assert [x.images for x in conjugate_all([p, q], r)] == [
        _ref_conjugate(a, c), _ref_conjugate(b, c)]


@pytest.mark.parametrize("n", [255, 256])
def test_sorting_across_the_bytes_cap_matches_the_image_tuples(n):
    small = Permutation(range(n))
    large = Permutation(range(n + 1))
    shifted = Permutation((1, 0, *range(2, n + 1)))
    for x in (small, small.inverse()):
        for y in (large, shifted, large * shifted):
            assert (x < y) == (x.images < y.images) and (x <= y) == (x.images <= y.images)
            assert (y < x) == (y.images < x.images) and (y <= x) == (y.images <= x.images)
            assert x != y
    assert sorted([shifted, small, large]) == [small, large, shifted]


@pytest.mark.parametrize("m,n", [(1, 2), (255, 256), (256, 257), (257, 300)])
def test_degree_mismatch_messages_on_both_kernels(m, n):
    p, q = Permutation.identity(m), Permutation.identity(n)
    for x, y in ((p, q), (q, p)):
        message = f"degree mismatch: {x.degree} vs {y.degree}"
        with pytest.raises(ValueError, match=message):
            x * y
        with pytest.raises(ValueError, match=message):
            x.conjugate(y)
        with pytest.raises(ValueError, match=message):
            right_multiply([x], y)
        with pytest.raises(ValueError, match=message):
            conjugate_all([x], y)
