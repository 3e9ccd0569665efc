package obs

import (
	"fmt"
	"io"
	"sync"
)

// LevelInfo is the verbosity at which Infof prints; errors always print.
// The zero verbosity is the CLIs' quiet default.
const LevelInfo = 1

// Logger is a minimal verbosity-leveled line logger. It exists so the
// CLIs share one leveling convention without pulling a logging framework
// into a stdlib-only repository. The nil receiver is valid and silent.
type Logger struct {
	mu    sync.Mutex
	w     io.Writer
	level int
}

// NewLogger writes lines at or below the given verbosity to w.
func NewLogger(w io.Writer, level int) *Logger {
	return &Logger{w: w, level: level}
}

func (l *Logger) printf(min int, format string, args ...any) {
	if l == nil || l.level < min {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, format, args...)
	fmt.Fprintln(l.w)
}

// Infof logs a progress line (verbosity ≥ 1).
func (l *Logger) Infof(format string, args ...any) { l.printf(LevelInfo, format, args...) }

// Errorf logs unconditionally (nil receivers excepted).
func (l *Logger) Errorf(format string, args ...any) {
	if l == nil {
		return
	}
	l.printf(l.level, format, args...)
}
