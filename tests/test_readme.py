import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs_as_documented():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    namespace = {}
    exec(block, namespace)
    assert namespace["outcome"].tolist() == [1, 1, 0]
