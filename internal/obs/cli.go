package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// CLIConfig binds the observability flags every CLI shares:
//
//	-events <file>  write the NDJSON structured event stream (- = stderr)
//	-obs            print the runtime metrics summary table at exit
//	-v <level>      log verbosity (0 quiet, 1 progress)
//
// Register the flags, flag.Parse, then Start to materialize a Session.
type CLIConfig struct {
	EventsPath string
	Summary    bool
	Verbosity  int
}

// Register installs the shared flags on fs.
func (c *CLIConfig) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.EventsPath, "events", "", "write the structured NDJSON event stream to this file (\"-\" for stderr)")
	fs.BoolVar(&c.Summary, "obs", false, "print the runtime observability summary at exit")
	fs.IntVar(&c.Verbosity, "v", 0, "log verbosity: 0 quiet, 1 progress")
}

// Session is one CLI run's materialized telemetry: an event sink (Discard
// unless -events was given), a metrics registry and a leveled logger.
// Close it (or Finish it) before exit so buffered events reach the file.
type Session struct {
	Events  Sink
	Metrics *Registry
	Log     *Logger

	cfg    CLIConfig
	ndjson *NDJSONSink
	file   *os.File
	closed bool
}

// Start opens the session: the events file is created (truncated) when
// requested, and the logger writes to stderr so it never corrupts a CLI's
// stdout tables.
func (c *CLIConfig) Start() (*Session, error) {
	s := &Session{
		Events:  Discard,
		Metrics: NewRegistry(),
		Log:     NewLogger(os.Stderr, c.Verbosity),
		cfg:     *c,
	}
	switch c.EventsPath {
	case "":
	case "-":
		s.ndjson = NewNDJSONSink(os.Stderr)
		s.Events = s.ndjson
	default:
		f, err := os.Create(c.EventsPath)
		if err != nil {
			return nil, fmt.Errorf("obs: opening events file: %w", err)
		}
		s.file = f
		s.ndjson = NewNDJSONSink(f)
		s.Events = s.ndjson
	}
	return s, nil
}

// Close flushes the event sink and closes the events file. It is
// idempotent, so a signal handler and a normal exit path can both call it.
func (s *Session) Close() error {
	if s == nil || s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.ndjson != nil {
		err = s.ndjson.Flush()
		s.Log.Infof("events: %d records written", s.ndjson.Count())
	}
	if s.file != nil {
		if cerr := s.file.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Finish closes the session and, when -obs was given, prints the metrics
// summary table to w. This is every CLI's last call before returning.
func (s *Session) Finish(w io.Writer) error {
	if s == nil {
		return nil
	}
	err := s.Close()
	if s.cfg.Summary {
		fmt.Fprintln(w)
		fmt.Fprint(w, s.Metrics.Summary())
	}
	return err
}
