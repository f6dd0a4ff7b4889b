"""The byte comparison of tools/compare_outputs.py."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)

PROFILE = "# scenario=shock output_dir={} dt=0.0001\nx,rho_h\n0,0.25\n1,0.33333333333333331\n"


@pytest.fixture
def trees(tmp_path):
    """Two output trees, each with a profile in a sub-directory and a table,
    equal but for the output_dir each header echoes."""
    roots = tmp_path / "base", tmp_path / "change"
    for root in roots:
        (root / "run").mkdir(parents=True)
        (root / "run" / "profile.csv").write_text(PROFILE.format(root / "run"))
        (root / "table.csv").write_text(f"# output_dir={root}\nh,error\n0.5,1e-3\n")
        (root / "run.stdout").write_text(f"{root}\n")  # not a CSV, not compared
    return roots


def test_equal_but_for_output_dir_exits_0(trees, capsys):
    assert compare_outputs.main([str(root) for root in trees]) == 0
    assert capsys.readouterr().out == "2 of 2 CSV files identical\n"


@pytest.mark.parametrize("edit", [
    lambda text: text.replace("0.33333333333333331", "0.33333333333333337"),
    lambda text: text.replace("dt=0.0001", "dt=0.0002"),
    lambda text: text + "\n",
], ids=["data byte", "header key", "trailing newline"])
def test_any_other_byte_differs(trees, capsys, edit):
    path = trees[1] / "run" / "profile.csv"
    path.write_text(edit(path.read_text()))
    assert compare_outputs.main([str(root) for root in trees]) == 1
    assert capsys.readouterr().out == "differs: run/profile.csv\n1 of 2 CSV files identical\n"


def test_output_dir_is_masked_in_line_1_only(trees, capsys):
    for root, value in zip(trees, "ab"):
        path = root / "table.csv"
        path.write_text(path.read_text() + f"output_dir={value}\n")
    assert compare_outputs.main([str(root) for root in trees]) == 1
    assert capsys.readouterr().out == "differs: table.csv\n1 of 2 CSV files identical\n"


def test_a_file_on_one_side_only_differs(trees, capsys):
    (trees[0] / "table.csv").unlink()
    (trees[0] / "extra.csv").write_text("# output_dir=x\n")
    assert compare_outputs.main([str(root) for root in trees]) == 1
    assert capsys.readouterr().out == (
        f"differs: extra.csv (missing under {trees[1]})\n"
        f"differs: table.csv (missing under {trees[0]})\n"
        "1 of 3 CSV files identical\n"
    )


def test_usage_errors_exit_2(trees, tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    for argv in ([str(trees[0])], [str(trees[0]), str(tmp_path / "missing")],
                 [str(empty), str(empty)]):
        assert compare_outputs.main(argv) == 2
        assert capsys.readouterr().err != ""
