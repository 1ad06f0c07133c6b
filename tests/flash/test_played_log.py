"""The row cursor of :class:`repro.flash.played.PlayedLog`: rows added
one by one and rows written by column land at their own row ids."""

import numpy as np
import pytest

from repro.flash.played import PlayedLog


def add(log, index):
    log.add(float(index), index, True, 0.0, 0.0, 0.0, 0.0, -1, 0, index, 0)


def test_added_and_written_rows_interleave_in_row_order():
    log = PlayedLog()
    written = []
    row = 0
    # runs of added rows with column-written gaps between them, long
    # enough to cross several commits and reallocations
    for run in range(40):
        for _ in range(run % 7 + 1):
            add(log, row)
            row += 1
        gap = run % 5
        if gap:
            written += range(row, row + gap)
            row += gap
            log.seek(row)
    rows = np.array(written)
    log.write(rows, {"index": rows, "arrival": rows.astype(float),
                     "device": 7})
    table = log.close()
    assert len(table) == row
    assert table.index.tolist() == list(range(row))
    assert table.arrival.tolist() == [float(i) for i in range(row)]
    assert (table.device[rows] == 7).all()
    assert (np.delete(table.device, rows) == -1).all()


def test_written_rows_survive_growth():
    log = PlayedLog()
    log.seek(3)
    log.write(np.array([0, 1, 2]), {"index": np.array([5, 6, 7])})
    for i in range(3 * PlayedLog._MIN_CAPACITY):  # grows the array
        add(log, i)
    assert log.table().index[:4].tolist() == [5, 6, 7, 0]


def test_seek_back_is_refused():
    log = PlayedLog()
    add(log, 0)
    add(log, 1)
    with pytest.raises(ValueError):
        log.seek(1)
    log.seek(2)  # where the cursor already is
    assert len(log) == 2
