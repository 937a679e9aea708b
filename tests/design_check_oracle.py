"""The per-row design parse and check oracles for the design tests.

One pass over a file's rows in order, one fault at a time: the
reference that nbibd's one-pass column parse and its array rule, shared
by Design, Design.from_blocks and read_design, must match in the row
they name and in the message.
"""

from nbibd._util import parse_bool, parse_int, read_csv


def parse_rows(path):
    """The (judge_index, faculty, posters) triples of a design file, parsed one cell at a time.

    parse_int and parse_bool go over the cells in row, then column
    order, so the FileFormatError raised is the first faulty cell or
    row width.
    """
    _, rows = read_csv(path)
    return [
        (
            parse_int(row[0], path, number, "judge_index"),
            parse_bool(row[1], path, number, "faculty"),
            [parse_int(cell, path, number, f"poster_{j + 1}") for j, cell in enumerate(row[2:])],
        )
        for number, row in rows
    ]


def first_fault(rows, t, k):
    """The file row and message of the first faulty block, or None when there is none.

    rows are (judge_index, faculty, posters) triples in file order, so
    block j sits on file row j + 2.  Within a row the faults are tried
    in order: judge order, duplicate poster, poster range, faculty run.
    """
    faculty_run_over = False
    for number, (judge, faculty, posters) in enumerate(rows, start=2):
        position = number - 2
        if judge != position:
            if 0 <= judge < position:
                return number, f"duplicate judge_index {judge}"
            return number, f"judge_index {judge} out of order (expected {position})"
        if len(set(posters)) != k:
            return number, "duplicate poster within the block"
        for poster in posters:
            if not 0 <= poster < t:
                return number, f"poster id {poster} outside [0, {t})"
        if faculty and faculty_run_over:
            return number, "faculty flags must mark a leading run of blocks"
        if not faculty:
            faculty_run_over = True
    return None
