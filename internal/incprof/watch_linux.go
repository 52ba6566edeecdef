//go:build linux

package incprof

import (
	"bytes"
	"encoding/binary"
	"os"
	"sync"
	"syscall"
)

// inotifyMask is what the tail asks of the kernel: every way a name enters
// or leaves the directory, the end of an in-place write, and the loss of the
// directory itself (IN_IGNORED, IN_Q_OVERFLOW and IN_UNMOUNT come unasked).
const inotifyMask = syscall.IN_CREATE | syscall.IN_MOVED_TO | syscall.IN_CLOSE_WRITE |
	syscall.IN_DELETE | syscall.IN_MOVED_FROM | syscall.IN_DELETE_SELF | syscall.IN_MOVE_SELF |
	syscall.IN_ONLYDIR

// inotify is the Linux dirEvents: one inotify instance watching the dump
// directory. The fd is non-blocking. A background goroutine parks on it in
// the runtime poller and reads whatever arrives, so the tail can be woken;
// drain reads what is left in the kernel queue itself, so it returns every
// event queued before the call. Both read under mu, which keeps the queue in
// the kernel's order.
type inotify struct {
	fd    int
	file  *os.File // fd, registered with the runtime poller
	seqOf func(name string) (int, bool)
	ready chan struct{}

	mu    sync.Mutex
	buf   []byte
	queue []dirEvent
	dead  bool // the watch is gone: a read failed or the directory went away
}

// openWatch starts watching dir for the dump names seqOf accepts. It
// returns nil when the kernel refuses an inotify instance or the watch, and
// the tail then lists the directory on every poll.
var openWatch = func(dir string, seqOf func(name string) (int, bool)) dirEvents {
	fd, err := syscall.InotifyInit1(syscall.IN_CLOEXEC | syscall.IN_NONBLOCK)
	if err != nil {
		return nil
	}
	if _, err := syscall.InotifyAddWatch(fd, dir, inotifyMask); err != nil {
		go syscall.Close(fd) // as costly as any inotify close; see close
		return nil
	}
	file := os.NewFile(uintptr(fd), dir)
	rc, err := file.SyscallConn()
	// NewFile leaves the fd blocking if the poller refuses it; drain must
	// never block.
	if err != nil || syscall.SetNonblock(fd, true) != nil {
		go file.Close()
		return nil
	}
	w := &inotify{fd: fd, file: file, seqOf: seqOf, ready: make(chan struct{}, 1), buf: make([]byte, 16<<10)}
	go w.listen(rc)
	return w
}

// listen reads events as they arrive, until the watch is closed or lost.
// The callback reads the fd until it is empty and returns false, so the
// poller parks the goroutine until the next event (the poller is
// edge-triggered: an event arriving after the empty read always wakes it).
func (w *inotify) listen(rc syscall.RawConn) {
	rc.Read(func(uintptr) bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.readLocked()
	})
}

// readLocked reads the kernel queue until it is empty, appending the
// events that concern dumps, and wakes the tail if one of them should. It
// reports whether the watch is gone.
func (w *inotify) readLocked() (dead bool) {
	wake := false
	for !w.dead {
		n, err := syscall.Read(w.fd, w.buf)
		if err == syscall.EINTR {
			continue
		}
		if err == syscall.EAGAIN {
			break
		}
		if err != nil || n < syscall.SizeofInotifyEvent {
			w.queue = append(w.queue, dirEvent{op: evLost})
			w.dead, wake = true, true
			break
		}
		wake = w.parse(w.buf[:n]) || wake
	}
	if wake {
		select {
		case w.ready <- struct{}{}:
		default:
		}
	}
	return w.dead
}

// parse appends the dump events of one read's worth of inotify records and
// reports whether any of them should wake the tail.
func (w *inotify) parse(b []byte) (wake bool) {
	for len(b) >= syscall.SizeofInotifyEvent {
		mask := binary.NativeEndian.Uint32(b[4:])
		end := syscall.SizeofInotifyEvent + int(binary.NativeEndian.Uint32(b[12:]))
		if end > len(b) {
			break
		}
		name := b[syscall.SizeofInotifyEvent:end]
		if i := bytes.IndexByte(name, 0); i >= 0 {
			name = name[:i]
		}
		b = b[end:]
		var op uint8
		switch {
		case mask&syscall.IN_Q_OVERFLOW != 0:
			op = evOverflow
		case mask&(syscall.IN_IGNORED|syscall.IN_DELETE_SELF|syscall.IN_MOVE_SELF|syscall.IN_UNMOUNT) != 0:
			op = evLost
			w.dead = true
		case mask&syscall.IN_ISDIR != 0:
			continue
		case mask&(syscall.IN_MOVED_TO|syscall.IN_CLOSE_WRITE) != 0:
			op = evAdded | evWake
		case mask&syscall.IN_CREATE != 0:
			op = evAdded
		case mask&(syscall.IN_DELETE|syscall.IN_MOVED_FROM) != 0:
			op = evRemoved
		default:
			continue
		}
		ev := dirEvent{op: op}
		if op&(evAdded|evRemoved) != 0 {
			s := string(name)
			seq, ok := w.seqOf(s)
			if !ok {
				continue
			}
			ev.seq, ev.name = seq, s
		}
		w.queue = append(w.queue, ev)
		wake = wake || op&(evWake|evOverflow|evLost) != 0
	}
	return wake
}

func (w *inotify) drain(dst []dirEvent) []dirEvent {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.readLocked()
	dst = append(dst, w.queue...)
	w.queue = w.queue[:0]
	// The caller is about to act on every queued event: a wake for them
	// would only cost an empty pass.
	select {
	case <-w.ready:
	default:
	}
	return dst
}

func (w *inotify) wake() <-chan struct{} { return w.ready }

// close releases the watch off the caller's path: closing an inotify
// instance with a watch waits out a kernel SRCU grace period, a median
// 7.8 ms and up to 28 ms on a 2-vCPU Xeon. Closing the file also ends
// listen.
func (w *inotify) close() { go w.file.Close() }
