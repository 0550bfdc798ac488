"""Plain-text rendering of tables and figure series.

The experiments render every regenerated table and figure in a
terminal-friendly form: aligned tables for the paper's tables, series
listings plus unicode bar charts for its figures.
"""


def format_table(headers, rows, title=None, precision=3):
    """Render an aligned text table.

    ``rows`` is a list of sequences; floats are formatted with
    ``precision`` digits.
    """
    def fmt(value):
        if isinstance(value, float):
            return "%.*f" % (precision, value)
        return str(value)

    text_rows = [[fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    out = []
    if title:
        out.append(title)
    out.append(line(headers))
    out.append(line(["-" * w for w in widths]))
    for row in text_rows:
        out.append(line(row))
    return "\n".join(out)


def format_figure_series(series, title=None, x_label="x", precision=3):
    """Render named (x, y) series as an aligned listing.

    ``series`` maps series name -> list of (x, y) pairs.
    """
    out = []
    if title:
        out.append(title)
    for name in series:
        points = series[name]
        formatted = ", ".join(
            "(%s, %.*f)" % (x, precision, y) for x, y in points
        )
        out.append("  %-12s %s" % (name + ":", formatted))
    return "\n".join(out)


def text_bar_chart(labels, values, title=None, width=42, max_value=None):
    """Render a horizontal unicode bar chart (for figure-like output)."""
    if max_value is None:
        max_value = max(values) if values else 1.0
    max_value = max(max_value, 1e-9)
    label_width = max((len(label) for label in labels), default=0)
    out = []
    if title:
        out.append(title)
    for label, value in zip(labels, values):
        filled = int(round(width * min(value, max_value) / max_value))
        bar = "█" * filled + "·" * (width - filled)
        out.append("  %s  %s %.3f" % (label.ljust(label_width), bar, value))
    return "\n".join(out)
