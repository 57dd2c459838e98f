"""No module of pik reads the process environment.

Every input of pik is a CLI flag or a function argument, checked at the
boundary, so a run is fixed by its command line.  A module that reads
``os.environ`` or ``os.getenv`` (or ``environb`` or ``getenvb``), as an
attribute or by ``from os import ...``, fails this test; a new environment
input has to change it and say why.
"""

import ast
from pathlib import Path

import pytest

PIK = Path(__file__).resolve().parent.parent / "src" / "pik"

ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    """Each read of the environment in source, as 'line: name'."""
    reads = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENV_NAMES:
            reads.append(f"{node.lineno}: {node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            reads += [f"{node.lineno}: {a.name}" for a in node.names if a.name in ENV_NAMES]
    return reads


@pytest.mark.parametrize(
    "source",
    [
        "import os\nx = os.environ.get('X')",
        "import os as o\nx = o.getenv('X')",
        "from os import environ\n",
        "from os import getenv as g\n",
    ],
)
def test_each_form_of_read_is_seen(source):
    assert environment_reads(source)


def test_no_module_reads_the_environment():
    found = {
        path.name: reads
        for path in sorted(PIK.glob("*.py"))
        if (reads := environment_reads(path.read_text()))
    }
    assert found == {}
