import os
import re
import subprocess
import sys
from pathlib import Path

import freep

README = Path(__file__).parents[1] / "README.md"


def test_readme_library_block_runs():
    # a public name the README uses and the package no longer exports fails here
    text = README.read_text()
    library = text[text.index("## Library"):]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(freep.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
