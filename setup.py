"""Build script: compiles the optional C extension ``permavoid._speedups``.

The extension holds one kernel, ``count_matrix_copies``, written against
the CPython API alone.  It is optional: where no C compiler is present
the build goes on without it, and ``permavoid.kernels`` binds the pure
kernel from ``permavoid._kernels_py`` instead, with identical results.
"""

from setuptools import Extension, setup

setup(ext_modules=[
    Extension("permavoid._speedups", ["src/permavoid/_speedups.c"], optional=True),
])
