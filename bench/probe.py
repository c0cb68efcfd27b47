"""A fixed job that uses nothing from the package, run beside the jobs to
see how fast the host is at the moment.

It starts an interpreter, makes the standard-library imports the package
makes, and multiplies truncated power series over Fraction, the package's
hottest kind of work.
"""

import argparse  # noqa: F401
import csv  # noqa: F401
import json  # noqa: F401
import re  # noqa: F401
import tempfile  # noqa: F401
import urllib.request  # noqa: F401
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass  # noqa: F401
from fractions import Fraction


def product(a, b):
    out = [Fraction(0)] * len(a)
    for i, ai in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] += ai * b[j]
    return out


series = [Fraction(1, k + 2) for k in range(31)]
acc = series
for _ in range(6):
    acc = product(acc, series)
