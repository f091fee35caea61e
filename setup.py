"""Legacy setup shim.

All metadata lives in ``pyproject.toml``.  This file only keeps the
classic ``python setup.py develop`` egg-link install working on hosts
without the ``wheel`` package, where PEP 517/660 builds (which build a
wheel) fail.
"""

from setuptools import setup

setup()
