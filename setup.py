"""Setup shim for environments without the ``wheel`` package.

All project metadata lives in ``pyproject.toml``.  Install with
``pip install .``; where ``wheel`` is missing and no package index is
reachable, an editable install still works through this file:

    python setup.py develop
"""

from setuptools import setup

setup()
