// Package logx builds mixtlb's structured logger. The CLI emits its
// operational chatter (run lifecycle, journal events, telemetry
// endpoints) through log/slog so the stream is grep-able as text or
// machine-readable as JSON, selected by one flag.
package logx

import (
	"fmt"
	"io"
	"log/slog"
)

// Formats accepted by New, in the order -log-format documents them.
const (
	FormatText = "text"
	FormatJSON = "json"
)

// New returns a logger writing to w in the requested format. Timestamps
// are stripped: the simulator is deterministic and its logs diff-able,
// and wall-clock times would make otherwise identical runs diverge.
func New(w io.Writer, format string) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) == 0 && a.Key == slog.TimeKey {
				return slog.Attr{}
			}
			return a
		},
	}
	switch format {
	case FormatText, "":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case FormatJSON:
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("logx: unknown log format %q (want %s or %s)", format, FormatText, FormatJSON)
	}
}
