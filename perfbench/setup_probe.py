"""One set-up sample: import crmostow from the checkout, build the inputs of
a workload, and print the monotonic clock (``time.monotonic``) at the end.

    python3 perfbench/setup_probe.py WORKLOAD SEED [--smoke]

``run.py`` starts this script a few times and takes the time from each
start to the printed clock value as one sample of ``setup_s``.
"""

import sys
import time

from run import use_checkout_source

use_checkout_source()

import workloads  # noqa: E402  (needs the checkout's src/ on sys.path)

workloads.prepare(sys.argv[1], int(sys.argv[2]), smoke="--smoke" in sys.argv[3:])
print(time.monotonic())
