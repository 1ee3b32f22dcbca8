import json

import pytest
from hypothesis import example, given, strategies as st

from raretype.partitions import (
    IntegerPartition,
    SetPartition,
    as_integer_partition,
    augment,
    bell_number,
    enumerate_partitions,
    reduce_sample,
    to_integer_partition,
)

# worked example used throughout: ten draws with six distinct values
EXAMPLE_SAMPLE = (2, 4, 2, 4, 3, 3, 10, 13, 5, 4)
EXAMPLE_BLOCKS = ((1, 3), (2, 4, 10), (5, 6), (7,), (8,), (9,))


def test_reduce_worked_example():
    p = reduce_sample(EXAMPLE_SAMPLE)
    assert p.n == 10
    assert p.blocks == EXAMPLE_BLOCKS


def test_reduce_single_element():
    assert reduce_sample(("x",)).blocks == ((1,),)


def test_reduce_all_equal():
    assert reduce_sample(("a", "a", "a", "a")).blocks == ((1, 2, 3, 4),)


def test_reduce_empty_sample_rejected():
    with pytest.raises(ValueError):
        reduce_sample(())


def test_augment_suspect_only():
    p = reduce_sample(EXAMPLE_SAMPLE)
    plus = augment(p, "suspect_only")
    assert plus.n == 11
    assert plus.blocks == EXAMPLE_BLOCKS + ((11,),)


def test_augment_suspect_and_trace():
    p = reduce_sample(EXAMPLE_SAMPLE)
    plusplus = augment(p, "suspect_and_trace")
    assert plusplus.n == 12
    assert plusplus.blocks == EXAMPLE_BLOCKS + ((11, 12),)


def test_augment_singleton_db():
    p = SetPartition.from_blocks([[1]])
    assert augment(p, "suspect_and_trace").blocks == ((1,), (2, 3))


def test_augment_unknown_mode():
    with pytest.raises(ValueError):
        augment(reduce_sample("ab"), "both")


def test_augment_rare_type_counts():
    p = reduce_sample(EXAMPLE_SAMPLE)
    plus = augment(p, "suspect_only")
    plusplus = augment(p, "suspect_and_trace")
    assert plusplus.k == plus.k
    assert plusplus.n == plus.n + 1


def test_integer_partition_of_augmented_example():
    plus = augment(reduce_sample(EXAMPLE_SAMPLE), "suspect_only")
    ip = to_integer_partition(plus)
    assert ip.a == (1, 2, 3)
    assert ip.r == (4, 2, 1)
    assert ip.n == 11
    assert ip.k == 7
    assert ip.s1 == 4
    assert ip.num_size_classes == 3


def test_integer_partition_trivial_cases():
    assert to_integer_partition(SetPartition.from_blocks([[1], [2], [3]])) == IntegerPartition((1,), (3,))
    p = SetPartition.from_blocks([[1, 2], [3, 4], [5]])
    assert to_integer_partition(p) == IntegerPartition((1, 2), (1, 2))


def test_as_integer_partition():
    ip = IntegerPartition((1, 2), (1, 2))
    assert as_integer_partition(ip) is ip
    assert as_integer_partition(SetPartition.from_blocks([[1, 2], [3, 4], [5]])) == ip


def test_integer_partition_validation():
    with pytest.raises(ValueError):
        IntegerPartition(a=(2, 1), r=(1, 1))
    with pytest.raises(ValueError):
        IntegerPartition(a=(1,), r=(1, 2))
    with pytest.raises(ValueError):
        IntegerPartition(a=(0,), r=(1,))


def test_add_singleton_and_pair():
    ip = IntegerPartition((2,), (3,))  # three pairs
    assert ip.add_singleton() == IntegerPartition((1, 2), (1, 3))
    assert ip.add_singleton().n == ip.n + 1
    assert ip.add_singleton().add_singleton() == IntegerPartition((1, 2), (2, 3))
    # the pair augmentation acts on set partitions
    p = SetPartition.from_blocks([[1, 2], [3, 4], [5, 6]])
    assert to_integer_partition(augment(p, "suspect_and_trace")) == IntegerPartition((2,), (4,))
    assert to_integer_partition(augment(p, "suspect_only")) == ip.add_singleton()


@pytest.mark.parametrize("n,count", [(1, 1), (3, 5), (4, 15)])
def test_enumerate_small_counts(n, count):
    parts = list(enumerate_partitions(n))
    assert len(parts) == count
    if n == 1:
        assert parts == [SetPartition.from_blocks([[1]])]


def test_enumerate_matches_bell_and_is_distinct():
    for n in range(1, 9):
        seen = set()
        for p in enumerate_partitions(n):
            assert p.n == n
            seen.add(p.blocks)
        assert len(seen) == bell_number(n)


def test_enumerate_cap():
    with pytest.raises(ValueError):
        next(enumerate_partitions(13))
    # cap is configurable
    assert next(enumerate_partitions(13, cap=13)).n == 13


def test_bell_number_extends_past_table():
    assert bell_number(13) == 27644437


labels_st = st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=12)


@given(labels_st)
def test_reduce_invariant_under_relabeling(labels):
    distinct = sorted(set(labels))
    remap = {lab: f"type{i}" for i, lab in enumerate(reversed(distinct))}
    assert reduce_sample(labels) == reduce_sample([remap[x] for x in labels])


@given(labels_st, st.randoms(use_true_random=False))
def test_size_multiset_invariant_under_permutation(labels, rnd):
    shuffled = list(labels)
    rnd.shuffle(shuffled)
    a = to_integer_partition(reduce_sample(labels))
    b = to_integer_partition(reduce_sample(shuffled))
    assert a == b


@given(labels_st)
def test_set_partition_json_round_trip(labels):
    p = reduce_sample(labels)
    assert SetPartition.from_dict(json.loads(json.dumps(p.to_dict()))) == p
    ip = to_integer_partition(p)
    assert IntegerPartition.from_dict(json.loads(json.dumps(ip.to_dict()))) == ip


def test_set_partition_canonical_construction_enforced():
    with pytest.raises(ValueError, match="ordered by least element"):
        SetPartition(n=2, blocks=((2,), (1,)))
    with pytest.raises(ValueError, match="sorted ascending"):
        SetPartition(n=2, blocks=((2, 1),))
    with pytest.raises(ValueError, match="cover 1..3"):
        SetPartition(n=3, blocks=((1, 2),))
    with pytest.raises(ValueError, match="index 2 appears in two blocks"):
        SetPartition(n=2, blocks=((1, 2), (2,)) )
    with pytest.raises(ValueError, match="index 3 appears in two blocks"):
        SetPartition(n=3, blocks=((1, 3), (2, 3)))
    with pytest.raises(ValueError, match="nonempty"):
        SetPartition(n=1, blocks=((1,), ()))
    # from_blocks canonicalizes the same data fine
    assert SetPartition.from_blocks([[2], [1]]).blocks == ((1,), (2,))


def test_from_dict_checks_declared_n():
    with pytest.raises(ValueError):
        SetPartition.from_dict({"n": 3, "blocks": [[1, 2]]})


def _loop_validation(n, blocks):
    """Block-by-block validation, the reference for SetPartition's
    vectorised checks."""
    seen = set()
    prev_least = 0
    for block in blocks:
        if not block:
            raise ValueError("blocks must be nonempty")
        if any(block[i] >= block[i + 1] for i in range(len(block) - 1)):
            raise ValueError("blocks must be sorted ascending")
        if block[0] <= prev_least:
            raise ValueError("blocks must be ordered by least element")
        prev_least = block[0]
        for idx in block:
            if idx in seen:
                raise ValueError(f"index {idx} appears in two blocks")
            seen.add(idx)
    if seen != set(range(1, n + 1)):
        raise ValueError(f"blocks must cover 1..{n} exactly")


@st.composite
def near_canonical_blocks(draw):
    """A canonical partition of some labels, then at most one small edit."""
    blocks = [list(b) for b in reduce_sample(draw(labels_st)).blocks]
    n = sum(len(b) for b in blocks) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    i = draw(st.integers(0, len(blocks) - 1))
    edit = draw(st.sampled_from(["none", "dup", "drop", "reverse", "swap", "empty", "value"]))
    if edit == "dup":
        blocks[i].append(draw(st.integers(0, n + 1)))
    elif edit == "drop":
        blocks[i].pop()
    elif edit == "reverse":
        blocks[i].reverse()
    elif edit == "swap":
        j = draw(st.integers(0, len(blocks) - 1))
        blocks[i], blocks[j] = blocks[j], blocks[i]
    elif edit == "empty":
        blocks.insert(i, [])
    elif edit == "value":
        blocks[i][-1] = draw(st.integers(-1, n + 2))
    return n, tuple(tuple(b) for b in blocks)


raw_blocks = st.tuples(
    st.integers(0, 8),
    st.lists(st.lists(st.integers(-1, 9), max_size=4).map(tuple), max_size=5).map(tuple),
)


@given(st.one_of(near_canonical_blocks(), raw_blocks))
@example((3, ((1, 2), (2,))))  # n indices, none above n, one repeated
def test_set_partition_checks_match_loop_reference(case):
    n, blocks = case
    try:
        _loop_validation(n, blocks)
        expected_ok = True
    except ValueError:
        expected_ok = False
    try:
        SetPartition(n=n, blocks=blocks)
        ok = True
    except ValueError:
        ok = False
    assert ok == expected_ok
