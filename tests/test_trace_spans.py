"""The benchmark's traced spans still see the calls that do the work.

``perfbench/tracing.py`` wraps functions under the names that the
``streampca`` modules import them by.  A call that bypasses such a name
drops out of the per-layer metrics without failing any output check, so
this test counts the spans of a short traced run.
"""

import importlib.util
from pathlib import Path

from streampca import cli
from streampca.ewmpca import EwmPCA
from streampca.synth import stationary_gaussian
from streampca.tableio import ObservationTable, write_table

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_spans_see_the_kernel(tmp_path):
    x = stationary_gaussian(300, 3, seed=2)
    inp = tmp_path / "in.csv"
    write_table(inp, ObservationTable(["x1", "x2", "x3"], x))
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        model = EwmPCA(0.97)
        for row in x[:20]:
            model.add(row)
        rc = cli.main(["ipca", str(inp), "--chunk-spec", "chunk=100",
                       "--output", str(tmp_path / "z.csv")])
    finally:
        tracer.uninstall()
    assert rc == 0
    # 19 rows after the first one refine; 2 of the 3 chunk fits are warm
    assert tracer.calls["ewmpca.add"] == 20
    assert tracer.calls["ewmstats.ewm_update"] == 19
    assert tracer.calls["refine.refine_to_convergence"] == 19 + 2
    assert tracer.calls["ipca.fit"] == 3
    assert tracer.calls["tableio.read_table"] == 1
    assert tracer.counts["refine.iterations"] > 0
    # uninstalled: further calls are no longer counted
    model.add(x[20])
    assert tracer.calls["ewmpca.add"] == 20


def test_cached_parser_runs_the_current_command_binding(tmp_path):
    # The parser is built once per process, so a tracer installed after the
    # first command must still see the command, and stop seeing it once it
    # is uninstalled.
    x = stationary_gaussian(200, 3, seed=3)
    inp = tmp_path / "in.csv"
    write_table(inp, ObservationTable(["x1", "x2", "x3"], x))
    argv = ["ipca", str(inp), "--chunk-spec", "chunk=100", "--output", str(tmp_path / "z.csv")]
    assert cli.main(argv) == 0
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert tracer.calls["cli.cmd_ipca"] == 1
    assert cli.main(argv) == 0
    assert tracer.calls["cli.cmd_ipca"] == 1
