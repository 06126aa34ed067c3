"""Build script: compiles the optional C speedups extension.

The package is fully functional without the extension: a twin of every
kernel ships in permavoid._kernels_py, and the build falls back to it
when Cython is unavailable.  In that twin the full S_n passes are numpy
sweeps over lexicographic blocks; the single-permutation and matrix
kernels are plain Python.
"""

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    ext_modules = []
else:
    ext_modules = cythonize(
        [Extension("permavoid._speedups", ["src/permavoid/_speedups.pyx"])],
        language_level="3",
    )

setup(ext_modules=ext_modules)
