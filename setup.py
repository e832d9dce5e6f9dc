"""Legacy setup shim.

Offline environments without the ``wheel`` package cannot build PEP 660
editable wheels, and ``pip install -e . --no-build-isolation`` fails there
with ``invalid command 'bdist_wheel'``.  This shim makes
``python setup.py develop`` install the package editable instead.  All
metadata lives in pyproject.toml.
"""

from setuptools import setup

setup()
