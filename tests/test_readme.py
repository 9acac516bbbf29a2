"""The README's Python examples run as written."""
import os
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"

#: runs the README's Python blocks in order, in one namespace, from the README at ``readme``:
#: later blocks use the names of earlier ones
RUN_BLOCKS = """if True:
    import pathlib, re
    blocks = re.findall(r"```python\\n(.*?)```", pathlib.Path(readme).read_text(), flags=re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, readme, "exec"), namespace)
"""


def test_readme_python_blocks_run_in_order():
    exec(RUN_BLOCKS, {"readme": str(README)})


def test_readme_python_blocks_run_in_a_fresh_interpreter():
    # there each name that the blocks import from rotwave resolves through the lazy package
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", f"readme = {str(README)!r}\n{RUN_BLOCKS}"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
