"""Table 3 — MatMul latency per engine, calibrated vs the paper.

Regenerates the micro-benchmark matrix (NPU INT8 / CPU INT8 / GPU FP16 /
NPU FP16 across six shapes) and checks that the simulator stays within
tolerance of the published measurements and preserves the engine ordering.
"""

from conftest import show_and_archive

from repro.eval.latency import TABLE3_PAPER_MS, table3_matmul


def test_table3_regenerates(once):
    table = once(table3_matmul)
    show_and_archive(table, "table3.txt")

    # every engine within 35% of the paper's measurement on every shape
    for row in table.rows:
        assert float(row[-1].rstrip("%")) <= 35.0, row[0]

    # engine ordering per shape: NPU INT8 < GPU FP16 < CPU INT8 << NPU FP16
    by_engine = {row[0]: row[1:-1] for row in table.rows}
    for i in range(6):
        assert (by_engine["NPU INT8"][i] < by_engine["GPU FP16"][i]
                < by_engine["CPU INT8"][i] < by_engine["NPU FP16"][i])

    # the headline gap: FP16 on the NPU is catastrophically slow
    assert by_engine["NPU FP16"][0] > 100 * by_engine["NPU INT8"][0]
