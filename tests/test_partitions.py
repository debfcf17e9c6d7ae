import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivercount.partitions import (
    Rectangle,
    complement,
    conjugate,
    contains,
    fits,
    format_partition,
    parse_partition,
    partition,
    partitions_in_rectangle,
    size,
)

R33 = Rectangle(3, 3)


def test_partition_normalizes_and_validates():
    assert partition([3, 2, 0, 0]) == (3, 2)
    assert partition(()) == ()
    with pytest.raises(ValueError):
        partition((1, 2))
    with pytest.raises(ValueError):
        partition((2, -1))


@pytest.mark.parametrize("parts", [(0, 1), (1, 0, 1), [0, 0, 2], (2, 0, 1, 0)])
def test_partition_rejects_a_zero_before_a_nonzero_part(parts):
    # stripping every zero would answer for (1,), (1, 1), (2) or (2, 1)
    with pytest.raises(ValueError, match="zero part before a nonzero part"):
        partition(parts)
    with pytest.raises(ValueError):
        parse_partition(format_partition(parts))


@pytest.mark.parametrize(
    "parts, bad",
    [([2.5, 1], "2.5"), ([0.5], "0.5"), ([1, 0.5], "0.5")],
)
def test_partition_rejects_non_integral_parts(parts, bad):
    # truncating would answer for another partition, or keep a zero part
    with pytest.raises(ValueError, match=f"non-integral part {bad}"):
        partition(parts)


def _partition_before(parts):
    """partition() before canonical tuples passed straight through: every
    input normalized by one generator, with only trailing zeros dropped
    (a zero before a nonzero part raises)."""
    parts = tuple(parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    if 0 in parts:
        raise ValueError(f"zero part before a nonzero part in partition {parts}")
    p = tuple(int(x) for x in parts)
    for i, x in enumerate(p):
        if x < 0:
            raise ValueError(f"negative part {x} in partition {p}")
        if i > 0 and p[i - 1] < x:
            raise ValueError(f"parts not weakly decreasing: {p}")
    return p


@settings(max_examples=500, derandomize=True)
@given(
    st.lists(st.sampled_from([*range(-2, 6), False, True]), max_size=5),
    st.booleans(),
    st.sampled_from([tuple, list, Rectangle]),
)
def test_partition_matches_the_normalizing_definition(parts, decreasing, kind):
    # sorted draws are mostly canonical; zeros, negatives, increases and
    # bools take the normalizing path; Rectangle is a tuple subclass
    if decreasing:
        parts.sort(reverse=True)
    if kind is Rectangle:
        parts = (parts + [0, 0])[:2]
    arg = kind(*parts) if kind is Rectangle else kind(parts)
    try:
        want = _partition_before(arg)
    except ValueError:
        with pytest.raises(ValueError):
            partition(arg)
        return
    got = partition(arg)
    assert got == want and got.__class__ is tuple
    assert all(x.__class__ is int for x in got)
    if arg.__class__ is tuple and arg == want and all(x.__class__ is int for x in arg):
        assert got is arg


def test_conjugate_pins():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((4,)) == (1, 1, 1, 1)


def test_complement_pins():
    # complement of (2,1) in 2x3: rows (3-1, 3-2) reversed
    assert complement((2, 1), Rectangle(2, 3)) == (2, 1)
    assert complement((), Rectangle(2, 2)) == (2, 2)
    assert complement((2, 2), Rectangle(2, 2)) == ()
    assert complement((3,), Rectangle(2, 3)) == (3,)


def test_complement_requires_fit():
    with pytest.raises(ValueError):
        complement((4,), R33)
    with pytest.raises(ValueError):
        complement((1, 1, 1, 1), R33)


def _complement_by_partition(lam, rect):
    """complement() as first written: the entries cols - lam[rows-1-i],
    normalized (and validated) by partition()."""
    if not fits(lam, rect):
        raise ValueError(f"partition {lam} does not fit in {rect.rows}x{rect.cols}")
    padded = list(lam) + [0] * (rect.rows - len(lam))
    return partition(rect.cols - padded[rect.rows - 1 - i] for i in range(rect.rows))


def test_complement_matches_the_partition_normalized_definition():
    # sorted draws are partitions, some with trailing zeros; unsorted and
    # negative ones are malformed; rectangles include 0 rows and 0 columns
    rng = random.Random(20)
    accepted = rejected = degenerate = 0
    for _ in range(20000):
        rect = Rectangle(rng.randint(0, 5), rng.randint(0, 5))
        lam = [rng.randint(-1, 6) for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.6:
            lam.sort(reverse=True)
        lam = tuple(lam)
        try:
            want = _complement_by_partition(lam, rect)
        except ValueError:
            with pytest.raises(ValueError):
                complement(lam, rect)
            rejected += 1
            continue
        assert complement(lam, rect) == want, (lam, rect)
        accepted += 1
        degenerate += 0 in rect
    assert accepted >= 2000 and rejected >= 2000 and degenerate >= 500


def test_graded_lex_enumeration_order():
    got = partitions_in_rectangle(Rectangle(2, 2))
    assert got == [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]


def test_enumeration_matches_count():
    for rows in range(5):
        for cols in range(5):
            rect = Rectangle(rows, cols)
            listed = partitions_in_rectangle(rect)
            assert len(listed) == comb(rows + cols, rows)
            assert len(set(listed)) == len(listed)
            assert all(fits(lam, rect) for lam in listed)


def test_enumeration_of_a_rectangle_taller_than_the_recursion_limit():
    # 1,500 rows, the label rectangle of alpha (1501, 1), beta (1500, 0)
    assert partitions_in_rectangle(Rectangle(1500, 1)) == [(1,) * n for n in range(1501)]


def test_degenerate_rectangles_hold_only_empty():
    assert partitions_in_rectangle(Rectangle(0, 5)) == [()]
    assert partitions_in_rectangle(Rectangle(5, 0)) == [()]
    assert len(partitions_in_rectangle(Rectangle(0, 0))) == comb(0, 0) == 1


def test_contains():
    assert contains((3, 2), (2, 2))
    assert not contains((3, 2), (2, 3))
    assert contains((1,), ())


def test_format_parse_round_trip():
    for lam in [(), (1,), (3, 2, 2), (5, 1)]:
        assert parse_partition(format_partition(lam)) == lam
    assert format_partition(()) == "()"
    assert parse_partition("( 2 , 1 )") == (2, 1)


def test_parse_rejects_bad_text():
    for text in ["", "2,1", "(1,2)", "(a)", "(1,", "(-1)"]:
        with pytest.raises(ValueError):
            parse_partition(text)


@settings(max_examples=200, derandomize=True)
@given(st.lists(st.integers(min_value=0, max_value=5), max_size=5))
def test_conjugate_is_an_involution(parts):
    lam = partition(sorted(parts, reverse=True))
    assert conjugate(conjugate(lam)) == lam
    assert size(conjugate(lam)) == size(lam)


@settings(max_examples=200, derandomize=True)
@given(st.data())
def test_complement_is_an_involution(data):
    rows = data.draw(st.integers(0, 4))
    cols = data.draw(st.integers(0, 4))
    rect = Rectangle(rows, cols)
    options = partitions_in_rectangle(rect)
    lam = data.draw(st.sampled_from(options))
    comp = complement(lam, rect)
    assert fits(comp, rect)
    assert size(lam) + size(comp) == rows * cols
    assert complement(comp, rect) == lam


def test_conjugate_commutes_with_complement():
    # cell-set identity: conjugating the complement equals complementing
    # the conjugate in the transposed rectangle
    for rect in [Rectangle(2, 3), Rectangle(3, 3), Rectangle(4, 2)]:
        for lam in partitions_in_rectangle(rect):
            lhs = conjugate(complement(lam, rect))
            rhs = complement(conjugate(lam), Rectangle(rect.cols, rect.rows))
            assert lhs == rhs
