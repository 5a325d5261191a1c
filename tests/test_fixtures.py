import subprocess
import sys
from pathlib import Path

from codedpir.reports import fixtures_dir

TOOL = Path(__file__).resolve().parent.parent / "tools" / "make_fixtures.py"


def test_fixtures_regenerate_byte_for_byte(tmp_path):
    """tools/make_fixtures.py rebuilds every packaged fixture through the code
    constructors and `mat_mul`; its output must equal the packaged files."""
    subprocess.run([sys.executable, str(TOOL), "--out", str(tmp_path)],
                   check=True, capture_output=True, timeout=120)
    packaged = sorted(p.name for p in fixtures_dir().glob("*.json"))
    assert sorted(p.name for p in tmp_path.glob("*.json")) == packaged
    for name in packaged:
        assert (tmp_path / name).read_bytes() == (fixtures_dir() / name).read_bytes(), name
