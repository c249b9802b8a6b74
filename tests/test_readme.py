"""README's library quick start runs as written against the package, and
its documented CSV header is the one the harness writes."""
import re
from pathlib import Path

from dynkmed.bench import CSV_HEADER, emit_metrics

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_quick_start_runs(capsys):
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_readme_csv_header_is_the_written_header(tmp_path):
    documented = "update_index,op,wall_nanos,distance_evals_delta,t,n,solution_cost,centers"
    assert f"`{documented}`" in README.read_text()
    path = tmp_path / "empty.csv"
    emit_metrics([], path)
    assert ",".join(CSV_HEADER) == documented == path.read_text().splitlines()[0]
