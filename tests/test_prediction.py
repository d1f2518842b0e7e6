"""``ScoreMatrix.predictions``, the one place scores become rankings,
against the tie rule written out one entity at a time."""

from __future__ import annotations

import numpy as np
from conftest import reference_ranking, row_scores
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from kgtyper.prediction import Prediction, ScoreMatrix

# Few distinct values, so that ties are common; both zeros, which compare equal.
SCORES = st.sampled_from([0.0, -0.0, 0.25, -0.25, 1.0, np.inf, -np.inf]) | st.floats(
    allow_nan=False, width=64
)


@st.composite
def score_matrices(draw) -> ScoreMatrix:
    """Classes in the order drawn, not sorted; some cells masked, some rows
    without any candidate."""
    classes = draw(st.lists(st.text("abAB_/", min_size=1, max_size=3), unique=True, max_size=7))
    rows = draw(st.integers(0, 6))
    shape = (rows, len(classes))
    values = draw(hnp.arrays(np.float64, shape, elements=SCORES, fill=st.nothing()))
    ranked = draw(hnp.arrays(np.bool_, shape, fill=st.nothing()))
    return ScoreMatrix([f"e{i}" for i in range(rows)], classes, values, ranked)


@given(score_matrices(), st.randoms(use_true_random=False))
def test_predictions_follow_the_tie_rule_whatever_the_column_order(matrix, random):
    expected = [reference_ranking(scores) for scores in row_scores(matrix)]
    assert matrix.predictions() == [
        Prediction(entity, ranking) for entity, ranking in zip(matrix.entities, expected)
    ]
    order = list(range(len(matrix.classes)))
    random.shuffle(order)
    shuffled = ScoreMatrix(
        matrix.entities, [matrix.classes[j] for j in order],
        matrix.values[:, order], matrix.ranked[:, order],
    )
    assert shuffled.predictions() == matrix.predictions()


def test_signed_zeros_tie_and_masked_cells_are_left_out():
    """A masked cell is left out even where its name sorts before a
    candidate scored -inf."""
    matrix = ScoreMatrix(
        ["e", "f", "g", "h"], ["z", "b", "a"],
        np.array([[-0.0, 0.0, 0.0], [5.0, 1.0, 9.0], [1.0, 1.0, 1.0], [-np.inf, 0.0, 0.0]]),
        np.array([[True, True, True], [True, True, False], [False] * 3, [True, False, False]]),
    )
    assert [p.ranking for p in matrix.predictions()] == [["a", "b", "z"], ["z", "b"], [], ["z"]]
