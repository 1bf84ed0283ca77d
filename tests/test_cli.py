"""The command-line contract: exact output and exit codes per subcommand.

Every expected stdout below was recorded from the program and is pinned
byte for byte, in text and in --json mode; an error exits with 1 and one
``error:`` line on stderr, never a traceback.
"""

import itertools
import json
import os
import re
import subprocess
import sys

import pytest

from kronecker import elimination
from kronecker.cli import build_parser, main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_S5 = [list(s) for s in itertools.permutations(range(1, 6))]

PINNED = [
    (["factor", "--", "x^4 - 1"], 0, "(x + 1) * (x - 1) * (x^2 + 1)\n", ""),
    (["--json", "factor", "--", "x^4 - 1"], 0, '{"factors": [["x + 1", 1], ["x - 1", 1], ["x^2 + 1", 1]], "unit": "1"}\n', ""),
    (["factor", "--", "x^2*y - 2*x + x*y^2 - 2*y"], 0, "(x + y) * (x*y - 2)\n", ""),
    (["--json", "factor", "--", "x^2*y - 2*x + x*y^2 - 2*y"], 0, '{"factors": [["x + y", 1], ["x*y - 2", 1]], "unit": "1"}\n', ""),
    (["factor", "--", "6*x^3 - 6*x"], 0, "6 * (x) * (x + 1) * (x - 1)\n", ""),
    (["--json", "factor", "--", "6*x^3 - 6*x"], 0, '{"factors": [["x", 1], ["x + 1", 1], ["x - 1", 1]], "unit": "6"}\n', ""),
    (["factor", "--", "1/2*x^2 - 1/8"], 0, "1/8 * (2*x + 1) * (2*x - 1)\n", ""),
    (["--json", "factor", "--", "1/2*x^2 - 1/8"], 0, '{"factors": [["2*x + 1", 1], ["2*x - 1", 1]], "unit": "1/8"}\n', ""),
    (["factor", "--", "(x^2 + y + 1)*(x*y - 2)"], 0, "(x*y - 2) * (x^2 + y + 1)\n", ""),
    (["--json", "factor", "--", "(x^2 + y + 1)*(x*y - 2)"], 0, '{"factors": [["x*y - 2", 1], ["x^2 + y + 1", 1]], "unit": "1"}\n', ""),
    (["gcd", "--", "(x + y)*(x - z)", "(x + y)*(y + z)"], 0, "x + y\n", ""),
    (["--json", "gcd", "--", "(x + y)*(x - z)", "(x + y)*(y + z)"], 0, '{"gcd": "x + y"}\n', ""),
    (["gcd", "--", "4*x^2 - 4", "6*x - 6"], 0, "x - 1\n", ""),
    (["--json", "gcd", "--", "4*x^2 - 4", "6*x - 6"], 0, '{"gcd": "x - 1"}\n', ""),
    (["resultant", "--", "x^2*y + z", "x*z - y", "x"], 0, "y^3 + z^3\n", ""),
    (["--json", "resultant", "--", "x^2*y + z", "x*z - y", "x"], 0, '{"resultant": "y^3 + z^3"}\n', ""),
    (["disc", "--", "x^3 + y*x + z", "x"], 0, "-4*y^3 - 27*z^2\n", ""),
    (["--json", "disc", "--", "x^3 + y*x + z", "x"], 0, '{"discriminant": "-4*y^3 - 27*z^2"}\n', ""),
    (["disc", "--", "3*x^2 - 5*x + 1"], 0, "13\n", ""),
    (["--json", "disc", "--", "3*x^2 - 5*x + 1"], 0, '{"discriminant": "13"}\n', ""),
    (["euler-trace", "--", "x^3 - 2*x + 7", "1"], 0, "0\n", ""),
    (["--json", "euler-trace", "--", "x^3 - 2*x + 7", "1"], 0, '{"value": "0"}\n', ""),
    (["euler-trace", "--", "x^3 - 2*x + 7", "2"], 0, "1\n", ""),
    (["--json", "euler-trace", "--", "x^3 - 2*x + 7", "2"], 0, '{"value": "1"}\n', ""),
    (["euler-trace", "--", "2*x^4 - x + 3", "5"], 0, "0\n", ""),
    (["--json", "euler-trace", "--", "2*x^4 - x + 3", "5"], 0, '{"value": "0"}\n', ""),
    (["galois", "--", "x^4 - 2"], 0, "order 8\nfactor pattern: 8+8+8\n  1 2 3 4\n  1 3 2 4\n  2 1 4 3\n  2 4 1 3\n  3 1 4 2\n  3 4 1 2\n  4 2 3 1\n  4 3 2 1\n", ""),
    (["--json", "galois", "--", "x^4 - 2"], 0, '{"elements": [[1, 2, 3, 4], [1, 3, 2, 4], [2, 1, 4, 3], [2, 4, 1, 3], [3, 1, 4, 2], [3, 4, 1, 2], [4, 2, 3, 1], [4, 3, 2, 1]], "factor_pattern": [8, 8, 8], "order": 8}\n', ""),
    (["galois", "--", "x^5 - 2"], 0, "order 20\nfactor pattern: 20+20+20+20+20+20\n  1 2 3 4 5\n  1 3 5 2 4\n  1 4 2 5 3\n  1 5 4 3 2\n  2 1 5 4 3\n  2 3 4 5 1\n  2 4 1 3 5\n  2 5 3 1 4\n  3 1 4 2 5\n  3 2 1 5 4\n  3 4 5 1 2\n  3 5 2 4 1\n  4 1 3 5 2\n  4 2 5 3 1\n  4 3 2 1 5\n  4 5 1 2 3\n  5 1 2 3 4\n  5 2 4 1 3\n  5 3 1 4 2\n  5 4 3 2 1\n", ""),
    (["--json", "galois", "--", "x^5 - 2"], 0, '{"elements": [[1, 2, 3, 4, 5], [1, 3, 5, 2, 4], [1, 4, 2, 5, 3], [1, 5, 4, 3, 2], [2, 1, 5, 4, 3], [2, 3, 4, 5, 1], [2, 4, 1, 3, 5], [2, 5, 3, 1, 4], [3, 1, 4, 2, 5], [3, 2, 1, 5, 4], [3, 4, 5, 1, 2], [3, 5, 2, 4, 1], [4, 1, 3, 5, 2], [4, 2, 5, 3, 1], [4, 3, 2, 1, 5], [4, 5, 1, 2, 3], [5, 1, 2, 3, 4], [5, 2, 4, 1, 3], [5, 3, 1, 4, 2], [5, 4, 3, 2, 1]], "factor_pattern": [20, 20, 20, 20, 20, 20], "order": 20}\n', ""),
    (["galois", "--", "x^3 - 3*x + 1"], 0, "order 3\nfactor pattern: 3+3\n  1 2 3\n  2 3 1\n  3 1 2\n", ""),
    (["--json", "galois", "--", "x^3 - 3*x + 1"], 0, '{"elements": [[1, 2, 3], [2, 3, 1], [3, 1, 2]], "factor_pattern": [3, 3], "order": 3}\n', ""),
    # the default weights give a resolvent with repeated roots and are redrawn
    (["galois", "--", "x^4 + 1"], 0, "order 4\nfactor pattern: 4+4+4+4+4+4\n  1 2 3 4\n  2 1 4 3\n  3 4 1 2\n  4 3 2 1\n", ""),
    (["--json", "galois", "--", "x^4 + 1"], 0, '{"elements": [[1, 2, 3, 4], [2, 1, 4, 3], [3, 4, 1, 2], [4, 3, 2, 1]], "factor_pattern": [4, 4, 4, 4, 4, 4], "order": 4}\n', ""),
    # repeated weights, redrawn likewise; S5 lists all 120 permutations in order
    (["galois", "--u=1,1,1,1,1", "--", "x^5 - x - 1"], 0, "order 120\nfactor pattern: 120\n" + "".join(f"  {' '.join(map(str, s))}\n" for s in _S5), ""),
    (["--json", "galois", "--u=1,1,1,1,1", "--", "x^5 - x - 1"], 0, json.dumps({"elements": _S5, "factor_pattern": [120], "order": 120}) + "\n", ""),
    (["resolvent", "--", "x^3 - 3*x - 1"], 0, "x^6 - 18*x^4 + 81*x^2 - 81\n", ""),
    (["--json", "resolvent", "--", "x^3 - 3*x - 1"], 0, '{"resolvent": "x^6 - 18*x^4 + 81*x^2 - 81", "u": [0, 1, 2]}\n', ""),
    (["resolvent", "--", "x^2 - 2*x + 1"], 0, "x^2 - 2*x + 1\n", ""),
    (["--json", "resolvent", "--", "x^2 - 2*x + 1"], 0, '{"resolvent": "x^2 - 2*x + 1", "u": [0, 1]}\n', ""),
    (["resolvent", "--", "x^2 + 1/2"], 0, "x^2 + 1/2\n", ""),
    (["--json", "resolvent", "--", "x^2 + 1/2"], 0, '{"resolvent": "x^2 + 1/2", "u": [0, 1]}\n', ""),
    (["resolvent", "--u", "1,0,2", "--", "(x - 1)^2*(x + 2)"], 0, "x^6 - 18*x^4 + 81*x^2\n", ""),
    (["--json", "resolvent", "--u", "1,0,2", "--", "(x - 1)^2*(x + 2)"], 0, '{"resolvent": "x^6 - 18*x^4 + 81*x^2", "u": [1, 0, 2]}\n', ""),
    (["prime-decomp", "--minpoly", "t^3 - t - 1", "--p", "7"], 0, "p=7 f=1 local_factor=t + 2 form=(t + 2)*u1 + 7 certified=true\np=7 f=2 local_factor=t^2 + 5*t + 3 form=(t^2 + 5*t + 3)*u2 + 7 certified=true\n", ""),
    (["--json", "prime-decomp", "--minpoly", "t^3 - t - 1", "--p", "7"], 0, '[{"certified": true, "f": 1, "local_factor": [2, 1], "p": 7}, {"certified": true, "f": 2, "local_factor": [3, 5, 1], "p": 7}]\n', ""),
    (["prime-decomp", "--minpoly", "t^2 + 5", "--p", "3"], 0, "p=3 f=1 local_factor=t + 1 form=(t + 1)*u1 + 3 certified=true\np=3 f=1 local_factor=t + 2 form=(t + 2)*u2 + 3 certified=true\n", ""),
    (["--json", "prime-decomp", "--minpoly", "t^2 + 5", "--p", "3"], 0, '[{"certified": true, "f": 1, "local_factor": [1, 1], "p": 3}, {"certified": true, "f": 1, "local_factor": [2, 1], "p": 3}]\n', ""),
    (["divisor-gcd", "--minpoly", "t^2 + 5", "2", "1 + t"], 0, "gcd divisor: 2*u1 + (t + 1)*u2\nnorm: 4*u1^2 + 4*u1*u2 + 6*u2^2\ncontent: 2\nFm: 2*u1^2 + 2*u1*u2 + 3*u2^2\n", ""),
    (["--json", "divisor-gcd", "--minpoly", "t^2 + 5", "2", "1 + t"], 0, '{"content": 2, "fm": "2*u1^2 + 2*u1*u2 + 3*u2^2", "form": "2*u1 + (t + 1)*u2", "norm": "4*u1^2 + 4*u1*u2 + 6*u2^2", "unit": false}\n', ""),
    (["divides", "--minpoly", "t^2 + 5", "--", "2 + (1 + t)*u1", "2"], 0, "true\n", ""),
    (["--json", "divides", "--minpoly", "t^2 + 5", "--", "2 + (1 + t)*u1", "2"], 0, '{"divides": true}\n', ""),
    (["divides", "--minpoly", "t^2 + 5", "--", "2 + (1 + t)*u1", "3"], 0, "false\n", ""),
    (["--json", "divides", "--minpoly", "t^2 + 5", "--", "2 + (1 + t)*u1", "3"], 0, '{"divides": false}\n', ""),
    (["divides", "--minpoly", "t^2 - 5", "--", "11 + (7/2 + 1/2*t)*u1", "7/2 + 1/2*t"], 0, "true\n", ""),
    (["--json", "divides", "--minpoly", "t^2 - 5", "--", "11 + (7/2 + 1/2*t)*u1", "7/2 + 1/2*t"], 0, '{"divides": true}\n', ""),
    (["divides", "--minpoly", "t^2 - 5", "--", "11 + (7/2 + 1/2*t)*u1", "3"], 0, "false\n", ""),
    (["--json", "divides", "--minpoly", "t^2 - 5", "--", "11 + (7/2 + 1/2*t)*u1", "3"], 0, '{"divides": false}\n', ""),
    (["divisor-gcd", "--minpoly", "t^2 - 5", "11", "7/2 + 1/2*t"], 0, "gcd divisor: 11*u1 + (1/2*t + 7/2)*u2\nnorm: 121*u1^2 + 77*u1*u2 + 11*u2^2\ncontent: 11\nFm: 11*u1^2 + 7*u1*u2 + u2^2\n", ""),
    (["--json", "divisor-gcd", "--minpoly", "t^2 - 5", "11", "7/2 + 1/2*t"], 0, '{"content": 11, "fm": "11*u1^2 + 7*u1*u2 + u2^2", "form": "11*u1 + (1/2*t + 7/2)*u2", "norm": "121*u1^2 + 77*u1*u2 + 11*u2^2", "unit": false}\n', ""),
    (["divisor-gcd", "--minpoly", "t^3 - t - 1", "5", "t - 2", "t^2 + t - 1"], 0, "gcd divisor: 5*u1 + (t - 2)*u2 + (t^2 + t - 1)*u3\nnorm: 125*u1^3 - 150*u1^2*u2 - 25*u1^2*u3 + 55*u1*u2^2 - 5*u1*u2*u3 - 20*u1*u3^2 - 5*u2^3 + 10*u2^2*u3 + 15*u2*u3^2 + 5*u3^3\ncontent: 5\nFm: 25*u1^3 - 30*u1^2*u2 - 5*u1^2*u3 + 11*u1*u2^2 - u1*u2*u3 - 4*u1*u3^2 - u2^3 + 2*u2^2*u3 + 3*u2*u3^2 + u3^3\n", ""),
    (["--json", "divisor-gcd", "--minpoly", "t^3 - t - 1", "5", "t - 2", "t^2 + t - 1"], 0, '{"content": 5, "fm": "25*u1^3 - 30*u1^2*u2 - 5*u1^2*u3 + 11*u1*u2^2 - u1*u2*u3 - 4*u1*u3^2 - u2^3 + 2*u2^2*u3 + 3*u2*u3^2 + u3^3", "form": "5*u1 + (t - 2)*u2 + (t^2 + t - 1)*u3", "norm": "125*u1^3 - 150*u1^2*u2 - 25*u1^2*u3 + 55*u1*u2^2 - 5*u1*u2*u3 - 20*u1*u3^2 - 5*u2^3 + 10*u2^2*u3 + 15*u2*u3^2 + 5*u3^3", "unit": false}\n', ""),
    (["factor", "--", "2/3*x^2*y - 3/2*y"], 0, "1/6 * (2*x + 3) * (2*x - 3) * (y)\n", ""),
    (["--json", "factor", "--", "2/3*x^2*y - 3/2*y"], 0, '{"factors": [["2*x + 3", 1], ["2*x - 3", 1], ["y", 1]], "unit": "1/6"}\n', ""),
    (["factor", "--", "1/6*x^3 + 1/3*x^2 - 1/2*x"], 0, "1/6 * (x) * (x + 3) * (x - 1)\n", ""),
    (["--json", "factor", "--", "1/6*x^3 + 1/3*x^2 - 1/2*x"], 0, '{"factors": [["x", 1], ["x + 3", 1], ["x - 1", 1]], "unit": "1/6"}\n', ""),
    (["gcd", "--", "1/2*x^2*y - 1/2*y", "3/4*x*y + 3/4*y"], 0, "x*y + y\n", ""),
    (["--json", "gcd", "--", "1/2*x^2*y - 1/2*y", "3/4*x*y + 3/4*y"], 0, '{"gcd": "x*y + y"}\n', ""),
    (["gcd", "--", "2/3*x^2 - 3/2", "5/7*x + 15/14"], 0, "2*x + 3\n", ""),
    (["--json", "gcd", "--", "2/3*x^2 - 3/2", "5/7*x + 15/14"], 0, '{"gcd": "2*x + 3"}\n', ""),
    (["resultant", "--", "1/2*x^2 + y", "2/3*x - 1/5*y", "x"], 0, "1/50*y^2 + 4/9*y\n", ""),
    (["--json", "resultant", "--", "1/2*x^2 + y", "2/3*x - 1/5*y", "x"], 0, '{"resultant": "1/50*y^2 + 4/9*y"}\n', ""),
    (["disc", "--", "1/3*x^3 - 2/5*x + y", "x"], 0, "-3*y^2 + 32/375\n", ""),
    (["--json", "disc", "--", "1/3*x^3 - 2/5*x + y", "x"], 0, '{"discriminant": "-3*y^2 + 32/375"}\n', ""),
    (["disc", "--", "7/2*x^2 - 1/3*x + 5/6"], 0, "-104/9\n", ""),
    (["--json", "disc", "--", "7/2*x^2 - 1/3*x + 5/6"], 0, '{"discriminant": "-104/9"}\n', ""),
    (["disc", "--", "5"], 1, "", "error: discriminant requires positive degree\n"),
    (["--json", "disc", "--", "5"], 1, "", "error: discriminant requires positive degree\n"),
    (["euler-trace", "--", "(x - 1)^2*(x + 2)", "0"], 1, "", "error: polynomial is not squarefree: derivative not invertible\n"),
    (["--json", "euler-trace", "--", "(x - 1)^2*(x + 2)", "0"], 1, "", "error: polynomial is not squarefree: derivative not invertible\n"),
    (["resolvent", "--", "2*x^2 + 1"], 1, "", "error: splitting algebra requires a monic polynomial\n"),
    (["--json", "resolvent", "--", "2*x^2 + 1"], 1, "", "error: splitting algebra requires a monic polynomial\n"),
    (["prime-decomp", "--minpoly", "t^2 + 5", "--p", "5"], 1, "", "error: ramified or index case: 5 divides the discriminant, outside the unramified hypothesis\n"),
    (["--json", "prime-decomp", "--minpoly", "t^2 + 5", "--p", "5"], 1, "", "error: ramified or index case: 5 divides the discriminant, outside the unramified hypothesis\n"),
    (["eliminate", "--", "x*y*z*w"], 1, "", "error: at most 3 variables (got 4)\n"),
    (["--json", "eliminate", "--", "x*y*z*w"], 1, "", "error: at most 3 variables (got 4)\n"),
    (["eliminate", "--", "x^5 + y"], 1, "", "error: total degree capped at 4\n"),
    (["--json", "eliminate", "--", "x^5 + y"], 1, "", "error: total degree capped at 4\n"),
    # the projection equation of the doubled lines involves a weight: an immersed component
    (["eliminate", "--", "x*z", "y^2 - 3*x*y*z^2"], 0, "codim 2: resolvent x*z\n  factor: x\n  factor: z\ntotal resolvente: x*z\n", ""),
    (["--json", "eliminate", "--", "x*z", "y^2 - 3*x*y*z^2"], 0, '{"components": [], "empty": false, "parts": [{"codim": 2, "factors": ["x", "z"], "resolvent": "x*z"}]}\n', ""),
    (["parametrize", "--", "x*z", "y^2 - 3*x*y*z^2"], 0, "immersed sheet (codim 2, degree 2): skipped\n", ""),
    (["--json", "parametrize", "--", "x*z", "y^2 - 3*x*y*z^2"], 0, '{"components": [], "empty": false, "parts": [{"codim": 2, "factors": ["x", "z"], "resolvent": "x*z"}]}\n', ""),
    # a curve in the plane z = 0, answered after a coordinate redraw
    (["eliminate", "--", "2*z^2", "-3*x*y^2 + 2*y^2 + 3*x"], 0, "codim 2: resolvent 4*z^3 - 9*z^2*x + 144*z^2*y - 324*z*x*y + 1296*z*y^2 - 2916*x*y^2 + 6*z^2 + 216*z*y + 1944*y^2 - 1296*z + 2916*x\n  factor: 4*z^3 - 9*z^2*x + 144*z^2*y - 324*z*x*y + 1296*z*y^2 - 2916*x*y^2 + 6*z^2 + 216*z*y + 1944*y^2 - 1296*z + 2916*x\ntotal resolvente: 4*z^3 - 9*z^2*x + 144*z^2*y - 324*z*x*y + 1296*z*y^2 - 2916*x*y^2 + 6*z^2 + 216*z*y + 1944*y^2 - 1296*z + 2916*x\n", ""),
    (["--json", "eliminate", "--", "2*z^2", "-3*x*y^2 + 2*y^2 + 3*x"], 0, '{"components": [{"params": [{"den": "10140000*z^5 + 14040000*z^4*x + 7754400*z^3*x^2 + 2135160*z^2*x^3 + 293058*z*x^4 + 16038*x^5 + 7800000*z^4 + 8928000*z^3*x + 3823200*z^2*x^2 + 725760*z*x^3 + 51516*x^4 - 42364800*z^3 - 33579360*z^2*x - 8814096*z*x^2 - 765936*x^3 - 15163200*z^2 - 8398080*z*x - 1154736*x^2 + 35481888*z + 8188128*x", "num": "-16562000*z^5*x - 22666800*z^4*x^2 - 12365640*z^3*x^3 - 3360744*z^2*x^4 - 454977*z*x^5 - 24543*x^6 - 114920000/3*z^5 - 69316000*z^4*x - 47752800*z^3*x^2 - 15889680*z^2*x^3 - 2575260*z*x^4 - 163458*x^5 + 520145600*z^4 + 605675040*z^3*x + 259376688*z^2*x^2 + 48500424*z*x^3 + 3346272*x^4 + 372340800*z^3 + 334095840*z^2*x + 98385840*z*x^2 + 9500328*x^3 - 1742554944*z^2 - 821997072*z*x - 96892848*x^2", "var": "y"}], "phi": "1690000*z^6 + 2808000*z^5*x + 1938600*z^4*x^2 + 711720*z^3*x^3 + 146529*z^2*x^4 + 16038*z*x^5 + 729*x^6 + 1560000*z^5 + 2232000*z^4*x + 1274400*z^3*x^2 + 362880*z^2*x^3 + 51516*z*x^4 + 2916*x^5 - 10591200*z^4 - 11193120*z^3*x - 4407048*z^2*x^2 - 765936*z*x^3 - 49572*x^4 - 5054400*z^3 - 4199040*z^2*x - 1154736*z*x^2 - 104976*x^3 + 17740944*z^2 + 8188128*z*x + 944784*x^2"}], "empty": false, "parts": [{"codim": 2, "factors": ["4*z^3 - 9*z^2*x + 144*z^2*y - 324*z*x*y + 1296*z*y^2 - 2916*x*y^2 + 6*z^2 + 216*z*y + 1944*y^2 - 1296*z + 2916*x"], "resolvent": "4*z^3 - 9*z^2*x + 144*z^2*y - 324*z*x*y + 1296*z*y^2 - 2916*x*y^2 + 6*z^2 + 216*z*y + 1944*y^2 - 1296*z + 2916*x"}]}\n', ''),
    # the u-run's sparse Sylvester determinants take the term maps
    (["eliminate", "--", "-x - 3*y^2 + 3", "x^2 + x*z - 3*y^2"], 0, "codim 2: resolvent 3072*x^4 - 26880*x^3*y + 6144*x^3*z + 88176*x^2*y^2 - 40704*x^2*y*z + 3072*x^2*z^2 - 128520*x*y^3 + 89856*x*y^2*z - 13824*x*y*z^2 + 70227*y^4 - 66096*y^3*z + 15552*y^2*z^2 + 5872*x^3 - 39480*x^2*y + 1248*x^2*z + 88479*x*y^2 - 5616*x*y*z - 66096*y^3 + 6318*y^2*z - 49680*x^2 + 217368*x*y - 49536*x*z - 237816*y^2 + 107568*y*z - 15552*z^2 + 11457*x - 24624*y + 9234*z + 9747\n  factor: 3072*x^4 - 26880*x^3*y + 6144*x^3*z + 88176*x^2*y^2 - 40704*x^2*y*z + 3072*x^2*z^2 - 128520*x*y^3 + 89856*x*y^2*z - 13824*x*y*z^2 + 70227*y^4 - 66096*y^3*z + 15552*y^2*z^2 + 5872*x^3 - 39480*x^2*y + 1248*x^2*z + 88479*x*y^2 - 5616*x*y*z - 66096*y^3 + 6318*y^2*z - 49680*x^2 + 217368*x*y - 49536*x*z - 237816*y^2 + 107568*y*z - 15552*z^2 + 11457*x - 24624*y + 9234*z + 9747\ntotal resolvente: 3072*x^4 - 26880*x^3*y + 6144*x^3*z + 88176*x^2*y^2 - 40704*x^2*y*z + 3072*x^2*z^2 - 128520*x*y^3 + 89856*x*y^2*z - 13824*x*y*z^2 + 70227*y^4 - 66096*y^3*z + 15552*y^2*z^2 + 5872*x^3 - 39480*x^2*y + 1248*x^2*z + 88479*x*y^2 - 5616*x*y*z - 66096*y^3 + 6318*y^2*z - 49680*x^2 + 217368*x*y - 49536*x*z - 237816*y^2 + 107568*y*z - 15552*z^2 + 11457*x - 24624*y + 9234*z + 9747\n", ""),
    (["--json", "eliminate", "--", "-x - 3*y^2 + 3", "x^2 + x*z - 3*y^2"], 0, '{"components": [{"params": [{"den": "1705548*x^3 + 1207908*x^2*y + 285108*x*y^2 + 22428*y^3 + 619554*x^2 + 286962*x*y + 33228*y^2 - 1174608*x - 277704*y + 40698", "num": "-1073319*x^3*y - 758979*x^2*y^2 - 178869*x*y^3 - 14049*y^4 - 5027750*x^3 - 3814460*x^2*y - 957777*x*y^2 - 79677*y^3 + 28787720*x^2 + 14361105*x*y + 1786599*y^2 - 3019986*x - 752400*y - 970938", "var": "z"}], "phi": "426387*x^4 + 402636*x^3*y + 142554*x^2*y^2 + 22428*x*y^3 + 1323*y^4 + 206518*x^3 + 143481*x^2*y + 33228*x*y^2 + 2565*y^3 - 587304*x^2 - 277704*x*y - 32832*y^2 + 40698*x + 9747*y + 9747"}], "empty": false, "parts": [{"codim": 2, "factors": ["3072*x^4 - 26880*x^3*y + 6144*x^3*z + 88176*x^2*y^2 - 40704*x^2*y*z + 3072*x^2*z^2 - 128520*x*y^3 + 89856*x*y^2*z - 13824*x*y*z^2 + 70227*y^4 - 66096*y^3*z + 15552*y^2*z^2 + 5872*x^3 - 39480*x^2*y + 1248*x^2*z + 88479*x*y^2 - 5616*x*y*z - 66096*y^3 + 6318*y^2*z - 49680*x^2 + 217368*x*y - 49536*x*z - 237816*y^2 + 107568*y*z - 15552*z^2 + 11457*x - 24624*y + 9234*z + 9747"], "resolvent": "3072*x^4 - 26880*x^3*y + 6144*x^3*z + 88176*x^2*y^2 - 40704*x^2*y*z + 3072*x^2*z^2 - 128520*x*y^3 + 89856*x*y^2*z - 13824*x*y*z^2 + 70227*y^4 - 66096*y^3*z + 15552*y^2*z^2 + 5872*x^3 - 39480*x^2*y + 1248*x^2*z + 88479*x*y^2 - 5616*x*y*z - 66096*y^3 + 6318*y^2*z - 49680*x^2 + 217368*x*y - 49536*x*z - 237816*y^2 + 107568*y*z - 15552*z^2 + 11457*x - 24624*y + 9234*z + 9747"}]}\n', ''),
    # empty varieties: a constant after one elimination step, and leftovers
    # in the last variable with no common root
    (["eliminate", "--", "x - y", "x - y - 1"], 0, "variety: empty\ntotal resolvente: 1\n", ""),
    (["--json", "eliminate", "--", "x - y", "x - y - 1"], 0, '{"components": [], "empty": true, "parts": []}\n', ""),
    (["eliminate", "--", "x - 1", "x - 2"], 0, "variety: empty\ntotal resolvente: 1\n", ""),
    (["--json", "eliminate", "--", "x - 1", "x - 2"], 0, '{"components": [], "empty": true, "parts": []}\n', ""),
    (["parametrize", "--", "x - 1", "x - 2"], 0, "no parametrizable components\n", ""),
    (["--json", "parametrize", "--", "x - 1", "x - 2"], 0, '{"components": [], "empty": true, "parts": []}\n', ""),
    (["parametrize", "--", "x*y*z*w"], 1, "", "error: at most 3 variables (got 4)\n"),
    (["--json", "parametrize", "--", "x*y*z*w"], 1, "", "error: at most 3 variables (got 4)\n"),
    (["parametrize", "--", "x^5 + y"], 1, "", "error: total degree capped at 4\n"),
    (["--json", "parametrize", "--", "x^5 + y"], 1, "", "error: total degree capped at 4\n"),
    (["class-number", "-d", "-1000000"], 1, "", "error: |d| capped at 200\n"),
    (["--json", "class-number", "-d", "-1000000"], 1, "", "error: |d| capped at 200\n"),
    (["galois", "--", "x^6 + x + 1"], 1, "", "error: degree capped at 5\n"),
    (["--json", "galois", "--", "x^6 + x + 1"], 1, "", "error: degree capped at 5\n"),
    (["genus-disc", "2"], 0, "det^2 == D^(2!/2): true (degree 2)\n", ""),
    (["--json", "genus-disc", "2"], 0, '{"degree": 2, "equal": true, "n": 2}\n', ""),
    (["genus-disc", "3"], 0, "det^2 == D^(3!/2): true (degree 18)\n", ""),
    (["--json", "genus-disc", "3"], 0, '{"degree": 18, "equal": true, "n": 3}\n', ""),
    (["genus-disc", "4"], 1, "", "error: identity is computed symbolically for n = 2 and 3\n"),
    (["--json", "genus-disc", "4"], 1, "", "error: identity is computed symbolically for n = 2 and 3\n"),
    (["ramified", "--minpoly", "t^2 + 5"], 0, "2 5\n", ""),
    (["--json", "ramified", "--minpoly", "t^2 + 5"], 0, '{"ramified": [2, 5]}\n', ""),
    (["ramified", "--minpoly", "t"], 0, "(none)\n", ""),
    (["--json", "ramified", "--minpoly", "t"], 0, '{"ramified": []}\n', ""),
    (["eliminate", "--", "0"], 0, "variety: whole space (zero ideal)\ntotal resolvente: 1\n", ""),
    (["--json", "eliminate", "--", "0"], 0, '{"components": [], "empty": false, "parts": [{"codim": 0, "factors": [], "resolvent": "0"}]}\n', ""),
    (["disc", "--", "x*y"], 1, "", "error: specify the variable for a multivariate discriminant\n"),
    (["--json", "disc", "--", "x*y"], 1, "", "error: specify the variable for a multivariate discriminant\n"),
    # a generator named like an indeterminate: the indeterminates skip its name
    (["prime-decomp", "--minpoly", "u1^2 + 1", "--p", "5"], 0, "p=5 f=1 local_factor=u1 + 2 form=(u1 + 2)*u2 + 5 certified=true\np=5 f=1 local_factor=u1 + 3 form=(u1 + 3)*u3 + 5 certified=true\n", ""),
    (["--json", "prime-decomp", "--minpoly", "u1^2 + 1", "--p", "5"], 0, '[{"certified": true, "f": 1, "local_factor": [2, 1], "p": 5}, {"certified": true, "f": 1, "local_factor": [3, 1], "p": 5}]\n', ""),
    (["divisor-gcd", "--minpoly", "u1^2 + 1", "2", "1 + u1"], 0, "gcd divisor: 2*u2 + (u1 + 1)*u3\nnorm: 4*u2^2 + 4*u2*u3 + 2*u3^2\ncontent: 2\nFm: 2*u2^2 + 2*u2*u3 + u3^2\n", ""),
    (["--json", "divisor-gcd", "--minpoly", "u1^2 + 1", "2", "1 + u1"], 0, '{"content": 2, "fm": "2*u2^2 + 2*u2*u3 + u3^2", "form": "2*u2 + (u1 + 1)*u3", "norm": "4*u2^2 + 4*u2*u3 + 2*u3^2", "unit": false}\n', ""),
]


@pytest.mark.parametrize("argv, code, out, err", PINNED, ids=[" ".join(a) for a, *_ in PINNED])
def test_cli_output_is_pinned(argv, code, out, err, capsys):
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("mode", [[], ["--json"]])
@pytest.mark.parametrize("command", ["eliminate", "parametrize"])
def test_eliminate_names_no_internal_variable(mode, command, capsys):
    """No message names the weights _u0, _u1, ..., the combination
    coefficients _U1, _V1, ... or the fiber combination _X: not on the doubled
    lines whose projection equation keeps a weight (an immersed component),
    nor on other doubled components or on a projection that is not proper."""
    systems = [
        ["x*z", "y^2 - 3*x*y*z^2"],
        ["2*x*z", "2*y*z^2 + 3*x^2*z + 2"],
        ["3*x^2*y", "z^2 - 3*y^2 + 2*x*y"],
        ["2*x^2 - 2*x*z", "x^2*z^2"],
        ["2*z + 3*x^2*y - 3", "y^2"],
    ]
    for system in systems:
        assert main([*mode, command, "--", *system]) == 0
        out, err = capsys.readouterr()
        assert not re.search(r"\b(_u\d|_U\d|_V\d|_X\b)", out + err), (system, out + err)


# order-preserving twins: the internal names sort where they did against both
_TWINS = {"u0": "a", "u1": "b", "u2": "c", "U1": "P1", "V1": "Q1", "X_": "R_"}


def _renamed(text, table):
    return re.sub(r"\b(" + "|".join(table) + r")\b", lambda m: table[m.group(1)], text)


@pytest.mark.parametrize(
    "system",
    [
        ["u1^2 - 2", "u0 - u1"],
        ["X_^2 + U1^2 - 1", "X_ - U1"],
        ["U1^2 + V1^2 + X_^2 - 1", "U1 + V1 + X_"],
        ["U1*V1 - 1", "U1 - V1^2"],
        ["X_*U1", "V1^2 - 3*X_*V1*U1^2"],
        ["u0*u1 - 1", "u1*u2 - 1", "u0 + u2 - 2"],
    ],
)
def test_variables_named_like_internal_ones_answer_as_their_twins(system, capsys):
    back = {v: k for k, v in _TWINS.items()}
    for argv in (["parametrize"], ["--json", "eliminate"]):
        assert main([*argv, "--", *system]) == 0
        answer = capsys.readouterr()
        assert main([*argv, "--", *(_renamed(g, _TWINS) for g in system)]) == 0
        twin = capsys.readouterr()
        assert answer == (_renamed(twin.out, back), _renamed(twin.err, back)), system


def test_residue_on_a_rational_grid_is_pinned(tmp_path, capsys):
    problem = {
        "system": ["x^2 - 1", "y^2 - 4"],
        "points": [["1", "2"], ["1", "-2"], ["-1", "2"], ["-1", "-2"]],
        "numerator": "x*y",
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert main(["residue", "--", str(path)]) == 0
    assert capsys.readouterr() == ("1\n", "")
    assert main(["--json", "residue", "--", str(path)]) == 0
    assert capsys.readouterr() == ('{"value": "1"}\n', "")


def test_interpolation_at_rational_points_is_pinned(tmp_path, capsys):
    problem = {
        "system": ["(2*x - 1)*(3*x + 2)", "(4*y - 3)*(y + 1/5)"],
        "points": [["1/2", "3/4"], ["-2/3", "3/4"], ["1/2", "-1/5"], ["-2/3", "-1/5"]],
        "values": ["1/3", "-5/2", "7", "0"],
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    interpolant = "-500/133*x*y + 698/133*x - 2050/399*y + 1186/399"
    assert main(["interpolate", "--", str(path)]) == 0
    assert capsys.readouterr() == (interpolant + "\n", "")
    assert main(["--json", "interpolate", "--", str(path)]) == 0
    assert capsys.readouterr() == (json.dumps({"interpolant": interpolant}) + "\n", "")


_PROBLEM = {"system": ["x - 1"], "points": [["1"]], "numerator": "x", "values": ["1/2"]}
_MALFORMED = [
    [1, 2],
    dict(_PROBLEM, points=[[None]]),
    dict(_PROBLEM, points=[["1", "2"]]),  # a coordinate too many
    dict(_PROBLEM, system=["x^2 - 1", "y"]),  # a coordinate too few
    dict(_PROBLEM, system="x - 1"),
    dict(_PROBLEM, points=[[float("inf")]]),
]


@pytest.mark.parametrize(
    "command, problem",
    [(command, problem) for problem in _MALFORMED for command in ("residue", "interpolate")]
    + [("interpolate", dict(_PROBLEM, values=["1/0"])), ("residue", dict(_PROBLEM, numerator=2))],
)
def test_a_malformed_problem_file_exits_1_with_one_error_line(command, problem, tmp_path, capsys):
    # the document's shape, its coordinates and values, and each point's
    # length are checked before any algebra; the well-formed file answers
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_PROBLEM))
    assert main([command, "--", str(path)]) == 0
    capsys.readouterr()
    path.write_text(json.dumps(problem))
    assert main([command, "--", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


def _run(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "kronecker.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("factor", "--", "x^^2"),
        ("factor", "--", "(x + 1"),
        ("factor", "--", "x $ y"),
        ("factor", "--", "1/0*x"),
        ("gcd", "--", "x +", "y"),
        ("resultant", "--", "x*y", "x - )", "x"),
        ("disc", "--", ""),
        ("divides", "--minpoly", "t^2 + 5", "--", "2 + * u1", "2"),
        ("prime-decomp", "--minpoly", "t^", "--p", "3"),
        ("euler-trace", "--", "x^3 - 2*x + 7", "one"),
        ("interpolate", "--", "no-such-problem.json"),
        ("residue", "--", "no-such-problem.json"),
    ],
)
def test_malformed_input_exits_without_a_traceback(argv):
    proc = _run(*argv)
    assert proc.returncode in (1, 2)
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip()


def test_a_budget_refusal_exits_1_with_one_error_line():
    # the image of x^12 - y^12 under Kronecker substitution has more factors
    # than the recombination allows; the message is left free to change
    proc = _run("factor", "--", "x^12 - y^12")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("mode", [[], ["--json"]])
@pytest.mark.parametrize("command", ["eliminate", "parametrize"])
def test_running_out_of_coordinate_redraws_exits_1_with_one_error_line(mode, command, capsys, monkeypatch):
    calls = []

    def degenerate(gens, variables, matrix):
        calls.append(matrix)
        raise elimination._Degenerate("forced")

    monkeypatch.setattr(elimination, "_decompose_with_matrix", degenerate)
    assert main([*mode, command, "--", "x^2 + y^2 - 1", "x - y"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()  # one line: no traceback
    assert len(lines) == 1
    assert lines[0].startswith("error: no sufficiently general coordinates found in 8 attempts")
    assert len(calls) == elimination.MAX_RETRIES


@pytest.mark.parametrize("command", ["galois", "resolvent"])
def test_malformed_weights_are_a_usage_error_and_a_wrong_count_a_domain_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--u", "a,b", "--", "x^2 + 1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage: kronecker {command} ")
    assert err.endswith("error: argument --u: comma-separated integer weights expected, got 'a,b'\n")
    assert main([command, "--u", "1,2,3", "--", "x^2 + 1"]) == 1
    assert capsys.readouterr() == ("", "error: need 2 comma-separated weights\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    assert "comma-separated integer weights" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["galois", "resolvent"])
def test_a_negative_first_weight_is_attached_with_equals(command, capsys, monkeypatch):
    # argparse reads a spaced "-1,2" as an option, not as the value of --u;
    # the help says to attach such a list with =
    with pytest.raises(SystemExit) as exc:
        main([command, "--u", "-1,2", "--", "x^2 + 1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --u: expected one argument\n")
    assert main([command, "--u=-1,2", "--", "x^2 + 1"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == ("x^2 + 9\n" if command == "resolvent" else "order 2\nfactor pattern: 2\n  1 2\n  2 1\n")
    monkeypatch.setenv("COLUMNS", "200")  # the help on one line
    with pytest.raises(SystemExit):
        main([command, "-h"])
    assert "a negative first weight needs =, as in --u=-1,2" in capsys.readouterr().out


def test_one_process_answers_as_fresh_processes_do(capsys):
    # the argument parser is built once per process and reused; a usage
    # error or a domain error in between leaves no state behind
    sequence = [
        ("gcd", "--", "x^2 - 1", "x + 1"),
        ("gcd", "--", "x"),
        ("resolvent", "--", "2*x^2 + 1"),
        ("gcd", "--", "x^2 - 1", "x + 1"),
    ]
    codes = []
    for argv in sequence:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        fresh = _run(*argv)
        assert (code, capsys.readouterr().out) == (fresh.returncode, fresh.stdout)
        codes.append(code)
    assert codes == [0, 2, 1, 0]
    assert build_parser() is build_parser()


def test_the_cli_does_not_import_mpmath():
    # the Galois route is exact end to end, so start-up pays for no
    # floating-point library
    code = "import sys, kronecker.cli; print('mpmath' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n")
