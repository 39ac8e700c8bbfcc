"""Instance transformations: exact images and solution preservation."""

import itertools
import random
from fractions import Fraction

import pytest

from targetset import (
    DIRECTED,
    DegeneracyOrdering,
    GenSpec,
    PreconditionError,
    UNDIRECTED,
    build_instance,
    degenerate_to_complete,
    exact_min_target_set,
    generate,
    is_target_set,
    peel_ordering,
    run_activation,
    to_bidirected,
    tss_to_complete,
    validate,
)
from targetset.checks import random_degenerate_tss_instance, random_tss_instance


def path3(tau=1):
    return build_instance(UNDIRECTED, 3, [(1, 2), (2, 3)], tau)


def test_complete_embedding_of_path3():
    receipt = tss_to_complete(path3())
    image = receipt.image
    assert image.edges == (
        (1, 2, Fraction(3)),
        (1, 3, Fraction(1)),
        (2, 3, Fraction(3)),
    )
    assert image.tau == {1: Fraction(3), 2: Fraction(3), 3: Fraction(3)}
    assert validate(image) is None


def test_complete_embedding_of_k2():
    image = tss_to_complete(build_instance(UNDIRECTED, 2, [(1, 2)], 1)).image
    assert image.edges == ((1, 2, Fraction(2)),)
    assert image.tau == {1: Fraction(2), 2: Fraction(2)}


def test_complete_embedding_of_c4():
    c4 = build_instance(UNDIRECTED, 4, [(1, 2), (2, 3), (3, 4), (1, 4)], [1, 2, 1, 2])
    image = tss_to_complete(c4).image
    weights = {(u, v): w for u, v, w in image.edges}
    assert weights[(1, 2)] == 4 and weights[(2, 3)] == 4
    assert weights[(3, 4)] == 4 and weights[(1, 4)] == 4
    assert weights[(1, 3)] == 1 and weights[(2, 4)] == 1
    assert image.tau == {1: Fraction(4), 2: Fraction(8), 3: Fraction(4), 4: Fraction(8)}


def test_complete_embedding_preconditions():
    with pytest.raises(PreconditionError):
        tss_to_complete(build_instance(UNDIRECTED, 1, [], 1))
    with pytest.raises(PreconditionError):
        tss_to_complete(build_instance(UNDIRECTED, 2, [(1, 2, 2)], 1))
    with pytest.raises(PreconditionError):
        tss_to_complete(build_instance(UNDIRECTED, 2, [(1, 2)], 5))
    with pytest.raises(PreconditionError):
        tss_to_complete(build_instance(DIRECTED, 2, [(1, 2)], 1))


def test_embedding_preconditions_name_the_first_offender():
    # Edges listed out of sorted order: the message names the first one listed.
    heavy = build_instance(UNDIRECTED, 3, [(2, 3, "1/2"), (1, 2, 3), (1, 3)], 1)
    for embed, what in ((tss_to_complete, "the complete-graph embedding"),
                        (degenerate_to_complete, "the hub embedding")):
        with pytest.raises(PreconditionError, match=rf"^{what} needs unit edge weights, edge \(2, 3\) has 1/2$"):
            embed(heavy)
    path = [(1, 2), (2, 3)]
    for tau, bad in (([1, 3, 2], "vertex 2 needs an integer threshold between 1 and its degree, got 3"),
                     ([1, "3/2", "1/2"], "vertex 2 needs an integer threshold between 1 and its degree, got 3/2"),
                     ([0, 1, 1], "vertex 1 needs an integer threshold between 1 and its degree, got 0")):
        with pytest.raises(PreconditionError, match=f"^{bad}$"):
            tss_to_complete(build_instance(UNDIRECTED, 3, path, tau))
    with pytest.raises(PreconditionError, match="^vertex 3 needs a nonnegative integer threshold, got 1/3$"):
        degenerate_to_complete(build_instance(UNDIRECTED, 3, path, [1, 1, "1/3"]))


def test_complete_embedding_preserves_target_sets_subsetwise():
    rng = random.Random(23)
    for _ in range(12):
        inst = random_tss_instance(rng, rng.randint(2, 6))
        image = tss_to_complete(inst).image
        for size in range(inst.n + 1):
            for combo in itertools.combinations(inst.vertices, size):
                seed = frozenset(combo)
                assert is_target_set(inst, seed) == is_target_set(image, seed)


def test_hub_embedding_of_k2():
    source = build_instance(UNDIRECTED, 2, [(1, 2)], 1)
    receipt = degenerate_to_complete(source)
    image = receipt.image
    assert receipt.notes["added_vertex"] == "3"
    assert image.tau == {1: Fraction(4), 2: Fraction(4), 3: Fraction(4)}
    weights = {(u, v): w for u, v, w in image.edges}
    assert weights[(1, 2)] == 2 and weights[(1, 3)] == 2 and weights[(2, 3)] == 2
    assert exact_min_target_set(source).optimum == 1
    assert exact_min_target_set(image).optimum == 2


def test_hub_embedding_of_path3():
    source = path3()
    image = degenerate_to_complete(source).image
    weights = {(u, v): w for u, v, w in image.edges}
    assert image.tau == {1: Fraction(6), 2: Fraction(6), 3: Fraction(6), 4: Fraction(9)}
    assert weights[(1, 2)] == 3 and weights[(2, 3)] == 3 and weights[(1, 3)] == 1
    assert weights[(1, 4)] == 3 and weights[(2, 4)] == 3 and weights[(3, 4)] == 3


def test_hub_embedding_image_stays_degenerate():
    rng = random.Random(31)
    for _ in range(10):
        source = random_degenerate_tss_instance(rng, rng.randint(2, 6))
        image = degenerate_to_complete(source).image
        assert isinstance(peel_ordering(image), DegeneracyOrdering)


def test_hub_embedding_rejects_non_degenerate_sources():
    triangle = build_instance(UNDIRECTED, 3, [(1, 2), (1, 3), (2, 3)], 1)
    with pytest.raises(PreconditionError):
        degenerate_to_complete(triangle)


def test_hub_embedding_preconditions():
    with pytest.raises(PreconditionError, match="the hub embedding takes undirected instances"):
        degenerate_to_complete(build_instance(DIRECTED, 2, [(1, 2)], 1))
    with pytest.raises(PreconditionError, match="the hub embedding needs at least two vertices"):
        degenerate_to_complete(build_instance(UNDIRECTED, 1, [], 1))
    with pytest.raises(PreconditionError, match=r"the hub embedding needs unit edge weights, edge \(1, 2\) has 2"):
        degenerate_to_complete(build_instance(UNDIRECTED, 2, [(1, 2, 2)], 1))


def test_bidirected_conversion_shapes():
    single = build_instance(UNDIRECTED, 2, [(1, 2, "1/2")], 1)
    image = to_bidirected(single).image
    assert image.mode == DIRECTED
    assert set(image.edges) == {(1, 2, Fraction(1, 2)), (2, 1, Fraction(1, 2))}
    triangle = build_instance(UNDIRECTED, 3, [(1, 2), (1, 3), (2, 3)], 1)
    assert len(to_bidirected(triangle).image.edges) == 6
    with pytest.raises(PreconditionError):
        to_bidirected(image)


def test_bidirected_conversion_preserves_traces():
    rng = random.Random(37)
    for _ in range(15):
        inst = generate(GenSpec(n=rng.randint(1, 6), seed=rng.randrange(2**32)))
        image = to_bidirected(inst).image
        for v in inst.vertices:
            assert run_activation(inst, {v}) == run_activation(image, {v})
