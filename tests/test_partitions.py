import dataclasses
import json
import pickle

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from raretype.partitions import (
    IntegerPartition,
    SetPartition,
    reduce_sample,
    to_integer_partition,
)
from raretype.pitman import PdParams, SeatingPlan, crp_sample

from reference import augment, bell_number, enumerate_partitions

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
    # blocks come in through from_blocks, in any order
    assert SetPartition.from_blocks([[2], [1]]).labels == (1, 2)
    assert SetPartition.from_blocks([[4, 2], [3, 1]]).blocks == ((1, 3), (2, 4))
    with pytest.raises(ValueError, match="cover 1..2 exactly"):
        SetPartition.from_blocks([[1, 3]])
    with pytest.raises(ValueError, match="cover 1..2 exactly"):
        SetPartition.from_blocks([[0], [1]])
    with pytest.raises(ValueError, match="index 2 appears in two blocks"):
        SetPartition.from_dict({"n": 2, "blocks": [[1, 2], [2]]})
    with pytest.raises(ValueError, match="index 3 appears in two blocks"):
        SetPartition.from_dict({"n": 3, "blocks": [[1, 3], [2, 3]]})
    with pytest.raises(ValueError, match="index 2 appears in two blocks"):
        SetPartition.from_blocks([[2, 2]])
    with pytest.raises(ValueError, match="nonempty"):
        SetPartition.from_blocks([[1], []])


@pytest.mark.parametrize(
    "labels",
    [
        (2,),  # the first label is not 1
        (2, 1),
        (1, 3),  # a jump of 2
        (1, 2, 1, 4),
        (1, 0),  # labels below 1
        (1, -1, 2),
        (0,),
        (),  # no elements
    ],
)
def test_label_string_check_rejects(labels):
    # as a tuple and as an integer array alike
    for form in (labels, np.array(labels, dtype=np.int64)):
        with pytest.raises(ValueError, match="created in order"):
            SetPartition(form)


@given(st.lists(st.integers(1, 6), min_size=1, max_size=40))
def test_label_array_is_stored_as_its_tuple(ys):
    labels = reduce_sample(ys).labels
    for dtype in (np.int64, np.int32, np.uint16):
        p = SetPartition(np.array(labels, dtype=dtype))
        assert p == SetPartition(tuple(labels))
        assert type(p.labels) is tuple and {type(y) for y in p.labels} == {int}
        assert p.block_sizes() == SetPartition(tuple(labels)).block_sizes()


def test_label_list_is_stored_as_its_tuple():
    p = SetPartition([1, 2, 1])
    assert type(p.labels) is tuple
    assert p == SetPartition((1, 2, 1))
    assert hash(p) == hash(SetPartition((1, 2, 1)))


@pytest.mark.parametrize(
    "labels",
    [
        (1.5, 2),
        ("1", 2),
        (1, 2.0),
        (True, 2),  # bool subclasses int but is no label
        np.array([1.0, 2.0]),
        np.array([True, False]),
        np.array([[1, 2]]),
    ],
)
def test_non_integer_labels_rejected(labels):
    # each of these constructed with k = 2, and then .blocks raised TypeError
    with pytest.raises(ValueError):
        SetPartition(labels)


@pytest.mark.parametrize("cls", [SetPartition, SeatingPlan])
@pytest.mark.parametrize("form", [tuple, lambda ys: np.array(ys, dtype=np.int32)])
def test_set_partitions_pickle(cls, form):
    ys = (1, 2, 1, 3, 3, 2, 4)
    p = cls(form(ys))
    again = pickle.loads(pickle.dumps(p))
    assert type(again) is cls and again == p and hash(again) == hash(p)
    assert type(again.labels) is tuple and again.labels == ys
    assert {type(y) for y in again.labels} == {int}
    assert again.block_sizes() == (2, 2, 2, 1)
    if cls is SeatingPlan:
        assert again.table_counts == (2, 2, 2, 1) and again.assignments == ys
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.labels = (1,)
    with pytest.raises(dataclasses.FrozenInstanceError):
        again.labels = (1,)


def test_label_array_is_copied():
    ys = np.array([1, 2, 1])
    p = SetPartition(ys)
    ys[1] = 1  # the caller keeps a writeable array of their own
    assert p.labels == (1, 2, 1) and p.block_sizes() == (2, 1)
    assert repr(p) == "SetPartition(labels=(1, 2, 1))"


def test_integer_partition_totals_are_computed_once():
    ip = IntegerPartition(a=(1, 3, 7), r=(4, 2, 1))
    assert (ip.n, ip.k) == (17, 7)
    assert repr(ip) == "IntegerPartition(a=(1, 3, 7), r=(4, 2, 1))"
    assert ip.to_dict() == {"a": [1, 3, 7], "r": [4, 2, 1]}
    other = dataclasses.replace(ip, r=(4, 2, 2))
    assert (other.n, other.k) == (24, 8)
    again = pickle.loads(pickle.dumps(ip))
    assert again == ip and hash(again) == hash(ip) and (again.n, again.k) == (17, 7)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ip.n = 3


def test_label_string_accepts_every_opening():
    p = SetPartition((1, 2, 1, 3, 3, 2, 4))
    assert (p.n, p.k) == (7, 4)
    assert p.blocks == ((1, 3), (2, 6), (4, 5), (7,))
    assert p.block_sizes() == (2, 2, 2, 1)


def test_from_dict_checks_declared_n():
    with pytest.raises(ValueError):
        SetPartition.from_dict({"n": 3, "blocks": [[1, 2]]})


def test_from_block_sizes_takes_arrays():
    sizes = np.array([3, 1, 1, 3, 2])
    expected = IntegerPartition((1, 2, 3), (2, 1, 2))
    assert IntegerPartition.from_block_sizes(sizes) == expected
    assert IntegerPartition.from_block_sizes(sizes.tolist()) == expected
    with pytest.raises(ValueError):
        IntegerPartition.from_block_sizes(np.array([], dtype=np.int64))


def test_non_integer_entries_rejected():
    # they were truncated: 2.5 counted as a block of 2, 2.9 as two blocks
    with pytest.raises(ValueError, match="integers"):
        IntegerPartition(a=(1.5,), r=(2,))
    with pytest.raises(ValueError, match="integers"):
        IntegerPartition.from_block_sizes([2.5, 1])
    with pytest.raises(ValueError, match="integers"):
        IntegerPartition.from_dict({"a": [1.5], "r": [2.9]})
    # bool subclasses int; to_dict() would write JSON true
    with pytest.raises(ValueError, match="integers"):
        IntegerPartition(a=(True, 2), r=(3, 1))
    assert IntegerPartition(a=(np.int64(1),), r=(np.int32(2),)).n == 2
    assert IntegerPartition.from_block_sizes(np.array([2, 1], dtype=np.uint8)).r == (1, 1)


@pytest.mark.parametrize(
    "sizes", [[True, 2], [2.5, 1], np.array([True, False]), np.array([2.0])], ids=repr
)
def test_bool_or_fractional_block_sizes_rejected(sizes):
    # a bool became a block of size 1, and an array is judged by its dtype
    with pytest.raises(ValueError, match="block sizes must be integers"):
        IntegerPartition.from_block_sizes(sizes)


@pytest.mark.parametrize(
    "sizes",
    [[0, 0], [-1, 2], [], np.array([], dtype=np.int64), np.array([0, 3]), np.array([[1, 2], [3, 4]])],
    ids=["zeros", "negative", "empty", "empty-array", "zero-in-array", "2-d-array"],
)
def test_empty_nested_or_nonpositive_block_sizes_rejected(sizes):
    # a 2-d array was flattened into four blocks; a size below 1 is no block
    with pytest.raises(ValueError, match="nonempty 1-d sequence of sizes >= 1"):
        IntegerPartition.from_block_sizes(sizes)


def _dict_blocks(sample):
    """Blocks by a dict of per-label index lists, the grouping reduce_sample
    used before it wrote label strings: the reference for the blocks."""
    groups = {}
    for idx, label in enumerate(sample, start=1):
        groups.setdefault(label, []).append(idx)
    return tuple(map(tuple, groups.values()))


def _dict_integer_partition(blocks):
    counts = {}
    for b in blocks:
        counts[len(b)] = counts.get(len(b), 0) + 1
    a = tuple(sorted(counts))
    return IntegerPartition(a, tuple(counts[x] for x in a))


def _assert_matches_dict_grouping(p, sample):
    blocks = _dict_blocks(sample)
    assert p.n == len(sample)
    assert p.k == len(blocks)
    assert p.blocks == blocks
    assert p.block_sizes() == tuple(map(len, blocks))
    assert to_integer_partition(p) == _dict_integer_partition(blocks)


@given(st.lists(st.integers(0, 40), min_size=1, max_size=300))
def test_reduce_matches_dict_grouping(sample):
    _assert_matches_dict_grouping(reduce_sample(sample), sample)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_database_sized_plans_match_dict_grouping(seed):
    plan = crp_sample(18925, PdParams(0.51, 216.0), seed=seed)
    p = plan.to_set_partition()
    assert p.labels is plan.assignments
    assert p.block_sizes() == plan.table_counts
    _assert_matches_dict_grouping(p, plan.assignments)


def _canonical(blocks):
    """from_blocks' block order: each block ascending, then by least element."""
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else 0))


def _loop_validation(n, blocks):
    """Block-by-block validation of canonicalised blocks, the reference for
    from_blocks and from_dict. A partition has at least one element."""
    if not blocks:
        raise ValueError("no blocks")
    seen = set()
    for block in blocks:
        if not block:
            raise ValueError("blocks must be nonempty")
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


def _accepts(check, *args) -> bool:
    try:
        check(*args)
    except ValueError:
        return False
    return True


@given(st.one_of(near_canonical_blocks(), raw_blocks))
@example((3, ((1, 2), (2,))))  # n indices, none above n, one repeated
@example((2, ((2,), (0,))))  # an index below 1 as the least element
@example((0, ()))  # the empty set
def test_set_partition_checks_match_loop_reference(case):
    n, blocks = case
    canon = _canonical(blocks)
    as_given = sum(map(len, blocks))
    assert _accepts(SetPartition.from_dict, {"n": n, "blocks": blocks}) == _accepts(
        _loop_validation, n, canon
    )
    ok = _accepts(_loop_validation, as_given, canon)
    assert _accepts(SetPartition.from_blocks, blocks) == ok
    if ok:
        assert SetPartition.from_blocks(blocks).blocks == canon
