"""Build script: compiles the optional search kernel extension.

The package is pure Python except for homstruct._kernels._ckern, a short
hand-written C extension that accelerates exhaustive structure searches
over prime fields. Without a C compiler the build warns and the package
still installs with the pure-Python kernel.
"""

import warnings

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """build_ext that degrades to the pure-Python kernel on failure."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, etc.
            warnings.warn(f"compiled search kernel not built ({exc}); "
                          "falling back to the pure Python kernel")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            warnings.warn(f"compiled search kernel not built ({exc}); "
                          "falling back to the pure Python kernel")


setup(ext_modules=[Extension("homstruct._kernels._ckern",
                             ["src/homstruct/_kernels/_ckern.c"])],
      cmdclass={"build_ext": OptionalBuildExt})
