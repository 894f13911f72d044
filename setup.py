"""Build script: compiles the optional census kernel.

The package works without the extension (a pure-Python kernel is selected
at import time), so the extension is optional: without a working C compiler
setuptools warns and skips it.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "chorddiag._census",
            ["src/chorddiag/_census.c"],
            extra_compile_args=["-O2"],
            optional=True,
        )
    ]
)
