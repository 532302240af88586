package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nowrender/internal/msg"
	"nowrender/internal/timeline"
)

// spanLog keeps the traced run's spans in memory: one span per call the
// benchmark makes into a layer, on a track named after that layer. A nil
// spanLog records nothing. At the end it is written out as Chrome trace
// JSON through internal/timeline's writer.
type spanLog struct {
	epoch time.Time

	mu     sync.Mutex
	tracks map[string][]timeline.Event
	// merged holds program timelines (farm.Config.Timeline) folded in
	// with their epochs shifted onto ours.
	merged []timeline.TrackData
}

func newSpanLog() *spanLog {
	return &spanLog{epoch: time.Now(), tracks: map[string][]timeline.Event{}}
}

// add records a span [start, end) on track. Safe for concurrent use.
func (l *spanLog) add(track string, op timeline.Op, frame int, start, end time.Time, arg int64) {
	if l == nil {
		return
	}
	e := timeline.Event{
		Start: int64(start.Sub(l.epoch)), Dur: int64(end.Sub(start)),
		Op: op, Frame: int32(frame), Arg: arg,
	}
	l.mu.Lock()
	l.tracks[track] = append(l.tracks[track], e)
	l.mu.Unlock()
}

// merge folds a program timeline recorded from epoch into the log, its
// track groups prefixed so successive jobs stay apart.
func (l *spanLog) merge(prefix string, epoch time.Time, tl *timeline.Timeline) {
	if l == nil || tl == nil {
		return
	}
	shift := int64(epoch.Sub(l.epoch))
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, td := range tl.Tracks {
		evs := make([]timeline.Event, len(td.Events))
		for i, e := range td.Events {
			e.Start += shift
			evs[i] = e
		}
		l.merged = append(l.merged, timeline.TrackData{Name: prefix + "-" + td.Name, Events: evs, Dropped: td.Dropped})
	}
}

// write saves every span as Chrome trace JSON at path.
func (l *spanLog) write(path string, meta map[string]string) (events int, err error) {
	tl := &timeline.Timeline{Meta: meta}
	l.mu.Lock()
	names := make([]string, 0, len(l.tracks))
	for n := range l.tracks {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		tl.AddTrack(n, l.tracks[n], 0)
	}
	for _, td := range l.merged {
		tl.AddTrack(td.Name, td.Events, td.Dropped)
	}
	l.mu.Unlock()
	tl.Sort()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := tl.WriteChromeTrace(f); err != nil {
		f.Close()
		return 0, fmt.Errorf("write trace: %w", err)
	}
	return tl.Events(), f.Close()
}

// tapConn is the benchmark-side msg.Conn wrapper that measures one
// connection: messages and bytes sent, time inside Send, and time
// blocked in Recv. With a spanLog it also records each call as a span.
type tapConn struct {
	msg.Conn
	spans *spanLog
	track string

	sends, sendBytes atomic.Int64
	sendNs, recvNs   atomic.Int64
}

func (c *tapConn) Send(m msg.Message) error {
	n := len(m.Data)
	t0 := time.Now()
	err := c.Conn.Send(m)
	t1 := time.Now()
	c.sends.Add(1)
	c.sendBytes.Add(int64(n))
	c.sendNs.Add(int64(t1.Sub(t0)))
	c.spans.add(c.track, timeline.OpSend, -1, t0, t1, int64(n))
	return err
}

func (c *tapConn) Recv() (msg.Message, error) {
	t0 := time.Now()
	m, err := c.Conn.Recv()
	t1 := time.Now()
	c.recvNs.Add(int64(t1.Sub(t0)))
	c.spans.add(c.track, timeline.OpRecv, -1, t0, t1, int64(len(m.Data)))
	return m, err
}

// replayConn hands back a message the benchmark already read (the
// worker's hello, consumed during set-up) before reading the wire.
// Only the hub's pump goroutine calls Recv.
type replayConn struct {
	msg.Conn
	first *msg.Message
}

func (c *replayConn) Recv() (msg.Message, error) {
	if m := c.first; m != nil {
		c.first = nil
		return *m, nil
	}
	return c.Conn.Recv()
}
