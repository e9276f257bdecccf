"""Machine-speed calibration, measured apart from the program under test.

The 2-vCPU host the benchmark was built on changes speed by up to 2x
over minutes, and by 20 % from one second to the next, because other
tenants share it; a run's raw times moved with it.  So before every job
the run times one calibration: a fixed piece of pure-Python work of the
kinds cobalt does (dicts keyed by tuples, Fraction and big-integer
arithmetic, fresh allocations), run in a freshly forked child the way a
job is.  The reported times are scaled by REFERENCE_S over the median
calibration of the run (run.py), which keeps the slow drift of the host
out of the comparison between two commits.

The children are forked by a helper process that is itself forked before
`cobalt` is imported, so neither the work nor the cost of the fork
depends on the program under test.
"""

import os
import struct
import time
from fractions import Fraction

# Median calibration time on the machine the benchmark was built on.
# Scaled times read as seconds on that machine at its usual speed.
REFERENCE_S = 0.03


def work():
    """The fixed calibration work; touches nothing outside this module."""
    terms = {(i, j): Fraction(i + 1, j + 2)
             for i in range(10) for j in range(10)}
    some = list(terms.items())[:24]
    product = {}
    for (a, b), x in terms.items():
        for (c, d), y in some:
            key = (a + c, b + d)
            product[key] = product.get(key, 0) + x * y
    n = 1
    for i in range(1, 600):
        n = n * 7 + i
    return len(product), n.bit_length()


class Calibrator:
    """Times `work` in a fresh child of a helper forked at construction.

    Construct it before importing the program.  The helper exits when
    `close` is called or when this process goes away.
    """

    def __init__(self):
        request_r, request_w = os.pipe()
        result_r, result_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(request_w)
            os.close(result_r)
            self._serve(request_r, result_w)
        os.close(request_r)
        os.close(result_w)
        self.pid = pid
        self._request = request_w
        self._result = result_r

    @staticmethod
    def _serve(request, result):
        code = 0
        try:
            while os.read(request, 1):
                start = time.perf_counter()
                child = os.fork()
                if child == 0:
                    try:
                        work()
                    finally:
                        os._exit(0)
                os.waitpid(child, 0)
                os.write(result, struct.pack("d", time.perf_counter() - start))
        except BaseException:
            code = 1
        finally:
            os._exit(code)

    def measure(self):
        """Seconds of one calibration, from fork to exit."""
        os.write(self._request, b"c")
        raw = os.read(self._result, 8)
        if len(raw) != 8:
            raise RuntimeError("the calibration helper stopped")
        return struct.unpack("d", raw)[0]

    def close(self):
        os.close(self._request)
        os.close(self._result)
        os.waitpid(self.pid, 0)
