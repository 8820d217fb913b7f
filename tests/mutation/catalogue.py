"""The patch catalogue: mutants and ablations of ``src/symclone``, one entry each.

Read by ``tests/mutation/run.py``, whose docstring gives the format and the
rules.  Every ``old`` text occurs exactly once in its file at the commit this
catalogue was last run on; the runner refuses an entry whose text has moved.
"""

GOLDEN = "tests/test_cli.py::test_commands_print_the_recorded_bytes"


def edit(file: str, old: str, new: str) -> dict:
    return {"file": file, "old": old, "new": new}


EXACT = "src/symclone/exact.py"
CLASSICAL = "src/symclone/classical.py"
DIAGRAMS = "src/symclone/diagrams.py"
QUANTUM = "src/symclone/quantum.py"
PROBE = "src/symclone/probe.py"
CLI = "src/symclone/cli.py"

T_EXACT = "tests/test_exact.py"
T_CLASSICAL = "tests/test_classical.py"
T_CLI = "tests/test_cli.py"
T_DIAGRAMS = "tests/test_diagrams.py"
T_QUANTUM = "tests/test_quantum.py"
T_RECORDS = "tests/test_records.py"
# tests that pin an optimisation itself, which its plain form fails by definition
RETURNS_VECTOR_AS_IS = ("tests/test_exact.py::TestSerialization::test_vec_returns_an_exact_vector_as_it_is",
                        "checks that vec returns an exact vector as the same object")
NO_STATE_COERCION = ("tests/test_diagrams.py::TestStateCoercion::test_sampled_states_and_readout_images_are_not_coerced",
                     "counts the entries the symplectic check parses, which must be none")
STATES_COERCED_ONCE = ("tests/test_diagrams.py::TestStateCoercion::test_caller_states_are_coerced",
                       "counts the parses of each caller state's entries, which must be one each")
COUNTS_PARSES = ("tests/test_classical.py::TestProcessSerialization::"
                 "test_each_distinct_string_of_the_document_is_parsed_once",
                 "counts the parser's calls over a process document")


# -- ablations: each optimisation replaced by its plain form -----------------
#
# Only the sites still in src/ are here; ABLATION.json keeps the patches and
# the measurements of the sites that were deleted.

ABLATIONS = [
    {
        "id": "scatter-one-term",
        "added_in": "d7b625d",
        "workload": "cli-large-standard",
        "edits": [edit(EXACT, """    if not terms:
        return ()
    if len(terms) == 1:
        [(a, b)] = terms
        return tuple((j, a * v) for j, v in b)
    acc = [0] * cols""", """    if not terms:
        return ()
    acc = [0] * cols""")],
        "tests": [T_EXACT, T_CLASSICAL, GOLDEN],
    },
    {
        "id": "parse-memo",
        "added_in": "d7b625d",
        "workload": "exact-random",
        "edits": [edit(EXACT, """        f = _frac(x)
        if type(x) is str:
            self[x] = f
        return f""", """        return _frac(x)""")],
        "tests": [T_EXACT, T_CLASSICAL, GOLDEN],
        "deselect": [COUNTS_PARSES],
    },
    {
        "id": "certificate-mod-p",
        "added_in": "50cb0e8",
        "workload": "exact-random",
        "edits": [edit(EXACT, "if matrix.rows and not _full_rank_mod_p(matrix) and matrix.rank() != matrix.rows:",
                       "if matrix.rank() != matrix.rows:")],
        "tests": [T_CLASSICAL, GOLDEN],
    },
    {
        "id": "halved",
        "added_in": "50cb0e8",
        "workload": "exact-random",
        "edits": [edit(CLASSICAL, """    out = []
    for j, x in row:
        p, q = x._numerator, x._denominator
        half = _from_coprime(p // 2, q) if p % 2 == 0 else _from_coprime(p, 2 * q)
        out.append((j + offset, half))
    return tuple(out)""", """    return tuple((j + offset, x / 2) for j, x in row)""")],
        "tests": [T_CLASSICAL, GOLDEN],
    },
    {
        "id": "gram-block",
        "added_in": "70f4078",
        "workload": "numeric",
        # one block of all n rows is the full Gram matrix
        "edits": [edit(QUANTUM, "_GRAM_BLOCK = 32", "_GRAM_BLOCK = 1 << 30")],
        "tests": [T_QUANTUM, T_DIAGRAMS, GOLDEN],
    },
    {
        "id": "paused-general-verify",
        "added_in": "2bda816",
        "workload": "exact-random",
        "edits": [
            edit(CLASSICAL, "@_paused\ndef general_cloner(", "def general_cloner("),
            edit(CLASSICAL, "@_paused\ndef verify_cloning(", "def verify_cloning("),
        ],
        "tests": [T_CLASSICAL, GOLDEN],
    },
    {
        "id": "prepared-arrow",
        "added_in": "70f4078",
        "workload": "numeric",
        "edits": [
            edit(DIAGRAMS, """    prepared = instance.compose(
        diagram.arrow_c, instance.tensor(instance.tensor(instance.identity(a), beta_arrow), rho_arrow)
    )
""", ""),
            edit(DIAGRAMS, "        lhs = instance.compose(prepared, psi)",
                 "        lhs = instance.compose(diagram.arrow_c, instance.tensor(instance.tensor(psi, beta_arrow), rho_arrow))"),
        ],
        # the test that counts the checker's composites pins the prepared arrow
        "tests": [T_DIAGRAMS, T_QUANTUM, GOLDEN],
    },
    {
        "id": "vec-all-fraction",
        "added_in": "70f4078",
        # its change claimed numeric as a whole, but numeric's float ops
        # never call vec; the verifier and the symplectic diagram check at
        # dim 100 do, so this site is timed on cli-large-standard
        "workload": "cli-large-standard",
        "edits": [edit(EXACT, """    if type(entries) is tuple and set(map(type, entries)) <= {Fraction}:
        return entries
""", "")],
        "tests": [T_EXACT, T_DIAGRAMS, GOLDEN],
        "deselect": [RETURNS_VECTOR_AS_IS, NO_STATE_COERCION, STATES_COERCED_ONCE],
    },
    {
        "id": "lbfgs-shortcuts",
        "added_in": "32caeb8",
        "workload": "numeric",
        "edits": [
            edit(PROBE, """        paired = paired or (rho[head - 1] > 0).all()  # then np.where gives all 1
        step = 1.0 if paired else np.where(rho[head - 1] > 0, 1.0, 1.0 / np.sqrt(dot(g, g)))
        x_new = x - q if paired else x - step[:, None] * q  # 1 * q is q""",
                 """        step = np.where(rho[head - 1] > 0, 1.0, 1.0 / np.sqrt(dot(g, g)))
        x_new = x - step[:, None] * q"""),
            edit(PROBE, """        cut = short.any()  # some row backtracks, with a step of its own
        step = np.full(len(live), step) if cut else step
        for _ in range(20 if cut else 0):""", """        for _ in range(20):"""),
            edit(PROBE, """        kept = (sy > 0) & ~short if cut else sy > 0
        keep = slice(None) if kept.all() else kept  # no mask when every row keeps
        rho[head, keep] = 1.0 / sy[keep]
        gamma[keep] = rho[head, keep] * dot(y, y)[keep]
        if keep is kept:""", """        kept = (sy > 0) & ~short
        rho[head, kept] = 1.0 / sy[kept]
        gamma[kept] = rho[head, kept] * dot(y, y)[kept]
        if True:"""),
            edit(PROBE, "        value = np.where(short, f, f_new) if cut else f_new",
                 "        value = np.where(short, f, f_new)"),
        ],
        "tests": [T_CLASSICAL],
    },
    {
        "id": "os-exit",
        "added_in": "bea1847",
        "workload": "cli-small",
        "edits": [edit(CLI, "    os._exit(code)", "    sys.exit(code)")],
        "tests": [T_CLI],
    },
]


# -- mutants: each one must fail a test of the files it names ----------------
#
# ``label`` marks a mutant no test kills on purpose: "equivalent" (no caller
# can tell it from the program), "by design" (the difference is one the
# program does not promise) or "open" (a gap still to close), with a reason.

MUTANTS = [
    # symplectic_defect, its scaling and the Darboux walk
    {
        "id": "defect-drops-form-in",
        "edits": [edit(EXACT, "        if f:\n            terms.append((-e * (drow // q),",
                       "        if not f:\n            terms.append((-e * (drow // q),")],
        "tests": [T_EXACT],
    },
    {
        "id": "defect-mirror-unsigned",
        "edits": [edit(EXACT, "tuple(_negated(low) + up for low, up in zip(lower, upper))",
                       "tuple(low + up for low, up in zip(lower, upper))")],
        "tests": [T_EXACT],
    },
    {
        "id": "defect-row-scale-choice-inverted",
        "edits": [edit(EXACT, "        if bits <= 0:\n            return cs, None",
                       "        if bits > 0:\n            return cs, None")],
        "tests": [T_EXACT],
    },
    {
        "id": "defect-column-scale-skips-lcm",
        "edits": [edit(EXACT, "            if scale[j] % c:\n                scale[j] = math.lcm(scale[j], c)",
                       "            if scale[j] % c:\n                scale[j] = c")],
        "tests": [T_EXACT],
    },
    {
        "id": "defect-shared-denominator-misses-form-in",
        "edits": [edit(EXACT, "        *[q for q, _ in frows],\n", "")],
        "tests": [T_EXACT],
    },
    {
        "id": "form-blocks-split-early",
        "edits": [edit(EXACT, "        if reach <= k:\n            blocks.append(range(lo, k + 1))",
                       "        if reach <= k + 1:\n            blocks.append(range(lo, k + 1))")],
        "tests": [T_EXACT],
    },
    {
        "id": "darboux-pairing-sign",
        "edits": [edit(EXACT, "sf /= sf * se * Fraction(-along_e.pop(idx), den)",
                       "sf /= sf * se * Fraction(along_e.pop(idx), den)")],
        "tests": [T_EXACT],
    },
    {
        "id": "darboux-skips-projection",
        "edits": [edit(EXACT, "            if not a and not b:\n                projected.append((sv, uv))",
                       "            if not a or not b:\n                projected.append((sv, uv))")],
        "tests": [T_EXACT],
    },
    {
        "id": "darboux-degenerate-guard",
        "edits": [edit(EXACT, "        if idx is None:\n            # cannot happen",
                       "        if idx is None and False:\n            # cannot happen")],
        "tests": [T_EXACT, T_CLASSICAL],
    },
    # rref / rank, the certificate and its fallback
    {
        "id": "eliminate-keeps-content",
        "edits": [edit(EXACT, "    return [x // g for x in out] if g > 1 else out",
                       "    return out")],
        "tests": [T_EXACT],
    },
    {
        "id": "rref-skips-back-substitution",
        "edits": [edit(EXACT, "        pivots = _forward(m, self.cols)\n        _back(m, pivots)",
                       "        pivots = _forward(m, self.cols)")],
        "tests": [T_EXACT],
    },
    {
        "id": "forward-pivot-search-from-zero",
        "edits": [edit(EXACT, "        piv = next((i for i in range(r, len(m)) if m[i][c]), None)",
                       "        piv = next((i for i in range(r + 1, len(m)) if m[i][c]), None)")],
        "tests": [T_EXACT],
    },
    {
        "id": "certificate-accepts-short-rank",
        "edits": [edit(EXACT, "        if piv is None:\n            return False",
                       "        if piv is None:\n            continue")],
        "tests": [T_EXACT],
    },
    {
        "id": "certificate-without-fallback",
        "edits": [edit(EXACT, "not _full_rank_mod_p(matrix) and matrix.rank() != matrix.rows",
                       "not _full_rank_mod_p(matrix)")],
        "tests": [T_EXACT],
    },
    {
        "id": "certificate-reduction-sign",
        "edits": [edit(EXACT, "row[c + 1 :] = [(a - f * b) % _P for a, b in zip(row[c + 1 :], tail)]",
                       "row[c + 1 :] = [(a + f * b) % _P for a, b in zip(row[c + 1 :], tail)]")],
        "tests": [T_EXACT],
    },
    # _scatter, verify_cloning and size_witness
    {
        "id": "scatter-reads-from-zero",
        "edits": [edit(EXACT, "compress(range(lo, cols), acc[lo:])", "compress(range(lo, cols), acc[:cols - lo])")],
        "tests": [T_EXACT],
    },
    {
        "id": "scatter-one-term-unscaled",
        "edits": [edit(EXACT, "        return tuple((j, a * v) for j, v in b)", "        return b")],
        "tests": [T_EXACT],
    },
    {
        "id": "verify-ignores-leak",
        "edits": [edit(CLASSICAL, "    for _, x in leak:\n        track(abs(x),",
                       "    for _, x in leak[:0]:\n        track(abs(x),")],
        "tests": [T_CLASSICAL],
    },
    {
        "id": "verify-trusts-copies",
        "edits": [edit(CLASSICAL, "    copies = not leak  # whether", "    copies = True  # whether")],
        "tests": [T_CLASSICAL],
    },
    {
        "id": "verify-skips-readout-equation",
        "edits": [edit(CLASSICAL, "    track(pullback_norm, \"readout does not pull", "    track(_ZERO, \"readout does not pull")],
        "tests": [T_CLASSICAL],
    },
    {
        "id": "verify-report-passes-on-defect",
        "edits": [edit(CLASSICAL, "        return not (self.symplectic_defect_norm or self.cloning_residual)",
                       "        return not self.cloning_residual")],
        "tests": [T_CLASSICAL],
    },
    {
        "id": "size-witness-bound-off-by-one",
        "edits": [edit(CLASSICAL, "    if dn >= dm:\n        raise NotApplicableError(",
                       "    if dn > dm:\n        raise NotApplicableError(")],
        "tests": [T_CLASSICAL],
    },
    {
        "id": "size-witness-wrong-partner",
        "edits": [edit(CLASSICAL, "    j = next(i for i, x in enumerate(omega_w) if x)",
                       "    j = next(i for i, x in enumerate(omega_w) if not x)")],
        "tests": [T_CLASSICAL],
    },
    # _ratio and _from_coprime: reduction and sign
    {
        "id": "ratio-skips-reduction",
        "edits": [edit(EXACT, "    if g != 1:\n        p //= g\n        q //= g", "    if g == 1:\n        p //= g\n        q //= g")],
        "tests": [T_EXACT],
    },
    {
        "id": "ratio-keeps-negative-denominator",
        "edits": [edit(EXACT, "            raise ZeroDivisionError(f\"Fraction({p}, 0)\")\n        g = -g",
                       "            raise ZeroDivisionError(f\"Fraction({p}, 0)\")")],
        "tests": [T_EXACT],
    },
    {
        "id": "ratio-accepts-zero-denominator",
        "edits": [edit(EXACT, "        if not q:\n            raise ZeroDivisionError", "        if not q and False:\n            raise ZeroDivisionError")],
        "tests": [T_EXACT],
    },
    {
        "id": "from-coprime-swaps-slots",
        "edits": [edit(EXACT, "    f._numerator = p\n    f._denominator = q", "    f._numerator = q\n    f._denominator = p")],
        "tests": [T_EXACT],
    },
    {
        "id": "halved-even-numerator",
        "edits": [edit(CLASSICAL, "if p % 2 == 0 else _from_coprime(p, 2 * q)", "if p % 2 == 1 else _from_coprime(p, 2 * q)")],
        "tests": [T_EXACT],
    },
    # check_cloning_diagram, the collector pause and the report properties
    {
        "id": "diagram-drops-last-block",
        "edits": [edit(DIAGRAMS, "    for lo in range(0, len(states), _BLOCK):", "    for lo in range(0, len(states) - 1, _BLOCK):")],
        "tests": [T_DIAGRAMS],
    },
    {
        "id": "diagram-ignores-rho",
        "edits": [edit(DIAGRAMS, "instance.tensor(instance.tensor(instance.identity(a), beta_arrow), rho_arrow)",
                       "instance.tensor(instance.tensor(instance.identity(a), beta_arrow), "
                       "instance.state_arrow(diagram.machine_b, [0] * len(diagram.rho)))")],
        "tests": [T_DIAGRAMS],
    },
    {
        "id": "members-equal-ignores-offset",
        "edits": [edit(DIAGRAMS, "        return [col == want for col in", "        return [not col for col in")],
        "tests": [T_DIAGRAMS],
    },
    {
        "id": "report-passed-any",
        "edits": [edit(DIAGRAMS, "        return all(ok for _, ok in self.results)", "        return any(ok for _, ok in self.results)")],
        "tests": [T_DIAGRAMS],
    },
    {
        "id": "report-first-failure-first-pass",
        "edits": [edit(DIAGRAMS, "return next((x for x, ok in self.results if not ok), None)",
                       "return next((x for x, ok in self.results if ok), None)")],
        "tests": [T_DIAGRAMS, T_RECORDS],
    },
    {
        "id": "paused-leaves-collector-off",
        "edits": [edit(EXACT, "        finally:\n            gc.enable()", "        finally:\n            pass")],
        "tests": [T_EXACT],
    },
    {
        "id": "paused-turns-collector-on",
        "edits": [edit(EXACT, "        if not gc.isenabled():\n            return kernel(*args, **kwargs)\n",
                       "")],
        "tests": [T_EXACT],
    },
    # the JSON readers' refusals and the CLI's exit map
    {
        "id": "reader-accepts-declared-shape-mismatch",
        "edits": [edit(EXACT, "    if (m.rows, m.cols) != (rows, cols):\n        raise ShapeError(\"entry grid",
                       "    if False:\n        raise ShapeError(\"entry grid")],
        "tests": [T_EXACT],
    },
    {
        "id": "reader-accepts-bool-size",
        "edits": [edit(EXACT, "    if not isinstance(x, int) or isinstance(x, bool):", "    if not isinstance(x, int):")],
        "tests": [T_EXACT, T_CLI],
    },
    {
        "id": "reader-accepts-underscores",
        "edits": [edit(EXACT, "            if \"_\" in x:", "            if \"_\" in x and False:")],
        "tests": [T_EXACT],
    },
    {
        "id": "reader-skips-exponent-limit",
        "edits": [edit(EXACT, "if limit and (len(digits) > len(str(limit)) or int(digits or 0) > limit):",
                       "if False:")],
        "tests": [T_EXACT, T_CLI],
    },
    {
        "id": "reader-unhashable-entry-fallback",
        "edits": [edit(EXACT, """        except TypeError:
            # an unhashable entry""", """        except ():
            # an unhashable entry""")],
        "tests": [T_EXACT],
    },
    {
        "id": "parse-keeps-zeros",
        "edits": [edit(EXACT, "rows.append(tuple([(j, x) for j, x in enumerate(map(entry, row)) if x is not _ZERO]))",
                       "rows.append(tuple([(j, x) for j, x in enumerate(map(entry, row))]))")],
        "tests": [T_EXACT],
    },
    {
        "id": "combine-keeps-zero-sums",
        "edits": [edit(EXACT, "    return tuple(sorted((j, x) for j, x in acc.items() if x))",
                       "    return tuple(sorted((j, x) for j, x in acc.items()))")],
        "tests": [T_DIAGRAMS, T_CLASSICAL],
    },
    {
        "id": "compose-offset-drops-sum",
        "edits": [edit(DIAGRAMS, "        offset = tuple((a + b) if b else a for a, b in zip(g.matrix.apply(h.offset), g.offset))",
                       "        offset = tuple(b if b else a for a, b in zip(g.matrix.apply(h.offset), g.offset))")],
        "tests": [T_DIAGRAMS],
    },
    {
        "id": "vector-reader-unhashable-fallback",
        "edits": [edit(EXACT, "        return tuple(map(parsed.__getitem__, v))\n    except TypeError:",
                       "        return tuple(map(parsed.__getitem__, v))\n    except ():")],
        "tests": [T_CLASSICAL, T_CLI],
    },
    {
        "id": "reader-accepts-non-object",
        "edits": [edit(EXACT, "    if not isinstance(data, dict):\n        raise TypeError(f\"{name} must be a JSON object\")",
                       "    if False:\n        raise TypeError(f\"{name} must be a JSON object\")")],
        "tests": [T_CLI],
    },
    {
        "id": "reader-accepts-grid-string",
        "edits": [edit(EXACT, "    if isinstance(x, _NOT_SEQUENCES):", "    if isinstance(x, (bytes, bytearray)):")],
        "tests": [T_EXACT],
    },
    {
        "id": "cli-usage-error-exits-one",
        "edits": [edit(CLI, "EXIT_USAGE = 2", "EXIT_USAGE = 1")],
        "tests": [T_CLI],
    },
    {
        "id": "cli-verify-fail-exits-zero",
        "edits": [edit(CLI, "    return EXIT_OK if report.passed else EXIT_FAIL\n\n\ndef _cmd_darboux",
                       "    return EXIT_OK\n\n\ndef _cmd_darboux")],
        "tests": [T_CLI],
    },
    {
        "id": "cli-load-lets-key-error-through",
        "edits": [edit(CLI, "    except (KeyError, TypeError, ZeroDivisionError) as exc:",
                       "    except (TypeError, ZeroDivisionError) as exc:")],
        "tests": [T_CLI],
    },
    {
        "id": "cli-missing-numpy-propagates",
        "edits": [edit(CLI, "        if exc.name != \"numpy\":\n            raise", "        raise")],
        "tests": [T_CLI],
    },
    {
        "id": "cli-broken-pipe-exits-zero",
        "edits": [edit(CLI, "        except BrokenPipeError:  # the reader went away (``symclone ... | head``)\n"
                            "            code = _error(_STDOUT_CLOSED)",
                       "        except BrokenPipeError:  # the reader went away (``symclone ... | head``)\n"
                       "            code = EXIT_OK")],
        "tests": [T_CLI],
    },
    # the guards left around the deleted optimisations
    {
        "id": "combine-overwrites-shared-column",
        "edits": [edit(EXACT, "        acc[j] = acc[j] + x if j in acc else x", "        acc[j] = x")],
        "tests": [T_EXACT],
    },
    {
        "id": "negated-keeps-sign",
        "edits": [edit(EXACT, """    \"\"\"The stored row of -row.\"\"\"
    return tuple((j, -x) for j, x in row)""", """    \"\"\"The stored row of -row.\"\"\"
    return row""")],
        "tests": [T_EXACT],
    },
    {
        "id": "int-row-drops-scaling",
        "edits": [edit(EXACT, "    return den, tuple((j, p * (den // d)) for (j, _), (p, d) in zip(row, ratios))",
                       "    return den, tuple((j, p) for (j, _), (p, d) in zip(row, ratios))")],
        "tests": [T_EXACT],
    },
    {
        "id": "vec-accepts-booleans",
        "edits": [edit(EXACT, "    elif isinstance(x, (int, str)) and not isinstance(x, bool):",
                       "    elif isinstance(x, (int, str)):")],
        "tests": [T_EXACT, T_DIAGRAMS],
    },
    {
        "id": "sequence-accepts-mappings",
        "edits": [edit(EXACT, "_NOT_SEQUENCES = (str, bytes, bytearray, Mapping, Set)",
                       "_NOT_SEQUENCES = (str, bytes, bytearray, Set)")],
        "tests": [T_EXACT],
    },
    {
        "id": "walk-scale-inverted",
        "edits": [edit(EXACT, "projected.append((sv * g / td, [x // g for x in w]))",
                       "projected.append((sv * td / g, [x // g for x in w]))")],
        "tests": [T_EXACT],
    },
    {
        "id": "fraction-row-drops-sign",
        "edits": [edit(EXACT, "    return tuple((j, Fraction(v, den)) for j, v in nums if v)",
                       "    return tuple((j, Fraction(v, abs(den))) for j, v in nums if v)")],
        "tests": [T_EXACT],
    },
    {
        "id": "skew-check-skipped",
        "edits": [edit(EXACT, "        if matrix != -matrix.T:", "        if False:")],
        "tests": [T_EXACT],
    },
    {
        "id": "state-arrow-skips-length-check",
        "edits": [edit(DIAGRAMS, """        x = vec(x)
        if len(x) != obj.dim:""", """        x = vec(x)
        if False:""")],
        "tests": [T_DIAGRAMS],
    },
    {
        "id": "members-equal-skips-dimension-guard",
        "edits": [edit(DIAGRAMS, """        if g.target_dim != h.target_dim:
            return [False] * g.source_dim
        want""", """        want""")],
        "tests": [T_DIAGRAMS],
    },
    {
        "id": "standard-block-transposed",
        "edits": [edit(EXACT, "_STANDARD_BLOCK = RatMatrix([[0, 1], [-1, 0]])", "_STANDARD_BLOCK = RatMatrix([[0, -1], [1, 0]])")],
        "tests": [T_EXACT],
    },
    {
        "id": "lbfgs-direction-aliases-gradient",
        "edits": [edit(PROBE, "        q = g.copy()", "        q = g")],
        "tests": [T_CLASSICAL],
    },
    # the CLI's input budgets
    {
        "id": "cli-construct-dim-cap-off-by-one",
        "edits": [edit(CLI, "    if args.dim > _MAX_CONSTRUCT_DIM:", "    if args.dim > _MAX_CONSTRUCT_DIM + 2:")],
        "tests": [T_CLI],
    },
    {
        "id": "cli-hilbert-samples-uncapped",
        "edits": [edit(CLI, "    if args.samples > _MAX_HILBERT_SAMPLES:", "    if False:")],
        "tests": [T_CLI],
    },
    # the float side
    {
        "id": "isometry-defect-skips-diagonal",
        "edits": [edit(QUANTUM, "        gram[:, :b].flat[:: b + 1] -= 1.0", "        gram[:, :b].flat[:: b + 2] -= 1.0")],
        "tests": [T_QUANTUM],
    },
    {
        "id": "isometry-defect-first-block-only",
        "edits": [edit(QUANTUM, "        gram = U[:, lo : lo + b].conj().T @ U[:, lo:]",
                       "        gram = U[:, lo : lo + b].conj().T @ U[:, lo : lo + b]")],
        "tests": [T_QUANTUM],
    },
    {
        "id": "lbfgs-armijo-sign",
        "edits": [edit(PROBE, "        short = ~(f_new <= f + 1e-4 * step * slope)", "        short = ~(f_new <= f - 1e-4 * step * slope)")],
        "tests": [T_CLASSICAL],
    },
]

ENTRIES = [{"kind": "ablation", **e} for e in ABLATIONS] + [{"kind": "mutant", **e} for e in MUTANTS]
