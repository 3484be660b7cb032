"""Peak memory of the generators and of serialize_graph, by tracemalloc.

numpy reports its array buffers to tracemalloc, so a call's traced peak
counts its temporaries. Each bound sits well below the peak of building the
whole dense table (or of formatting every edge at once) and above the peak
of building it in blocks of rows (or edges). On a 2-vCPU VM with numpy 2,
dense and blocked peaks were: gen_pg2(47) 77.9 and 6.0 MB,
gen_sum_cayley(2003, 2) 113 and 49 MB, serialize_graph of G(1000, 1100, 0.3)
30.9 and 13.5 MB.
"""

import tracemalloc

from nmpkit import gen_gnp, gen_pg2, gen_sum_cayley, serialize_graph


def traced_peak_mb(f, *args):
    """The most memory that f(*args) held at once, in MB, its result included."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        f(*args)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        if started:
            tracemalloc.stop()


def test_pg2_holds_no_point_by_line_product():
    assert traced_peak_mb(gen_pg2, 47) < 24


def test_sum_cayley_holds_no_table_of_sums():
    assert traced_peak_mb(gen_sum_cayley, 2003, 2) < 80


def test_serialize_holds_no_tuple_of_every_endpoint():
    g = gen_gnp(1000, 1100, 0.3, 1)
    assert traced_peak_mb(serialize_graph, g) < 22
