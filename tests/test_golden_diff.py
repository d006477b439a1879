import importlib.util
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_golden_diff():
    spec = importlib.util.spec_from_file_location(
        "golden_diff", ROOT / "scripts" / "golden_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def max_abs(lines):
    return {ln.split(":")[0].strip(): float(ln.split("max_abs=")[1].split()[0])
            for ln in lines if "max_abs=" in ln}


def test_first_data_row_is_compared():
    # the row right under the header (the Choi state's first real row)
    # is data: a change in it must show in its own column
    golden = (ROOT / "golden" / "fig4b_tomo.csv").read_text()
    rows = golden.splitlines()
    cells = rows[1].split(",")
    cells[0] = repr(float(cells[0]) + 1e-3)
    produced = "\n".join([rows[0], ",".join(cells)] + rows[2:]) + "\n"
    lines = load_golden_diff().column_deltas(produced, golden)
    assert not any("header" in ln or "row count" in ln for ln in lines)
    deltas = max_abs(lines)
    assert list(deltas) == [f"c{j}[1]" for j in range(16)]
    assert abs(deltas["c0[1]"] - 1e-3) < 1e-12
    assert all(v == 0.0 for k, v in deltas.items() if k != "c0[1]")


def test_named_header_kept():
    golden = (ROOT / "golden" / "fig4a_gate.csv").read_text()
    rows = golden.splitlines()
    cells = rows[1].split(",")
    cells[1] = repr(float(cells[1]) + 0.5)
    produced = "\n".join([rows[0], ",".join(cells)] + rows[2:]) + "\n"
    deltas = max_abs(load_golden_diff().column_deltas(produced, golden))
    assert list(deltas) == rows[0].split(",")
    assert deltas[rows[0].split(",")[1]] == 0.5


def test_phase_turn_reads_zero_wrapped(tmp_path, capsys):
    # a phase_out cell moved by 2*pi is the same phase: the raw delta
    # shows the turn, the wrapped one does not, and the body still differs
    golden = (ROOT / "golden" / "storage_baseline.csv").read_text()
    rows = golden.splitlines()
    col = rows[0].split(",").index("phase_out[rad]")
    cells = rows[100].split(",")
    cells[col] = repr(float(cells[col]) + 2.0 * math.pi)
    produced = "\n".join(rows[:100] + [",".join(cells)] + rows[101:]) + "\n"
    module = load_golden_diff()
    line, = [ln for ln in module.column_deltas(produced, golden)
             if "phase_out" in ln]
    assert max_abs([line])["phase_out[rad]"] == 6.283
    assert float(line.split("max_wrapped=")[1]) == 0.0

    fresh = tmp_path / "storage_baseline.csv"
    fresh.write_text(produced)
    module.preset_csvs = lambda names, out_root: iter([fresh])
    assert module.main([]) == 1
    assert "storage_baseline.csv: DIFFERS" in capsys.readouterr().out
