import sys

import line_trace

MODULE = '''\
def f(x):
    """A docstring has no bytecode."""
    if x:
        return 1
    raise ValueError(
        "never"
    )


Y = 2
'''


def test_the_trace_lists_what_ran_of_each_function_body(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(MODULE)
    assert line_trace.function_statements(path) == {3: "if x:", 4: "return 1", 5: "raise ValueError("}
    namespace = {}
    exec(compile(MODULE, str(path), "exec"), namespace)
    trace, outer = line_trace.LineTrace(tmp_path), sys.gettrace()
    sys.settrace(trace)
    try:
        namespace["f"](1)
    finally:
        sys.settrace(outer)
    assert trace.lines_of(path.resolve()) == {3, 4}
