"""The closed-loop client: one request at a time through ``cli.main``.

``send`` passes one argument vector to the CLI entry point in-process,
under a fixed per-request limit enforced with ``ITIMER_REAL``. Its handler
raises ``RequestTimeout``, a ``BaseException`` so that no ``except
Exception`` inside the program can swallow it, and which interrupts
pure-Python work at the next bytecode boundary.

Outcomes: ``answered`` (exit 0, answer still to be checked), ``refused``
(exit 1), ``crash`` (an exception or ``SystemExit`` escaped ``cli.main``,
or it returned another code) and ``timeout`` (the limit was hit; the
latency is then the full limit).
"""

import contextlib
import io
import signal
import time

LIMIT_S = 5.0


class RequestTimeout(BaseException):
    """Raised by the interval timer when a request reaches its limit."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


def send(main, argv, limit=LIMIT_S):
    """Run ``main(["--json", *argv])``; return (outcome, latency_s, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    try:
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                signal.setitimer(signal.ITIMER_REAL, limit)
                rc = main(["--json", *argv])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latency = time.perf_counter() - t0
    except RequestTimeout:
        return "timeout", limit, "", f"no answer within {limit} s"
    except KeyboardInterrupt:
        raise
    except BaseException as exc:  # the CLI contract allows no escaping exception
        return "crash", time.perf_counter() - t0, "", f"{type(exc).__name__}: {exc}"
    finally:
        signal.signal(signal.SIGALRM, previous)
    if latency >= limit:
        return "timeout", limit, "", f"no answer within {limit} s"
    if rc == 0:
        return "answered", latency, out.getvalue(), ""
    if rc == 1:
        return "refused", latency, "", err.getvalue().strip()
    return "crash", latency, "", f"cli.main returned {rc!r}"
