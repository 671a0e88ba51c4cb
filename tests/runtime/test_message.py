"""Tests for wire-payload pricing."""

import numpy as np

from repro.runtime import DeltaRows, dv_payload_words


def test_payload_words_formula():
    assert dv_payload_words(3, 100) == 3 * 101
    assert dv_payload_words(0, 100) == 0


def test_message_payload_counts_rows_and_headers():
    rows = DeltaRows(dense={5: np.zeros(10), 7: np.zeros(10)})
    assert rows.words() == 2 * 11 == dv_payload_words(2, 10)
