package main

// Kernel receive timestamps for the generator's receive sockets. The
// benchmark runs the system and the generator in one process on one P,
// so the receiving goroutine may wait behind a lookup or a fan-out burst
// before it reads a datagram; the kernel's stamp is when the datagram
// reached the socket, which is the arrival the metrics mean. (Linux
// starts stamping at arrival a moment after the first socket asks, and
// stamps at read time until then; every workload warms up for longer.)

import (
	"encoding/binary"
	"errors"
	"net"
	"syscall"
	"time"
)

// timespecLen is the size of the kernel's struct timespec on 64-bit
// Linux: seconds and nanoseconds, each an int64.
const timespecLen = 16

var errNoStamp = errors.New("datagram carried no receive timestamp")

// enableRxStamps asks the kernel to stamp every datagram conn receives.
func enableRxStamps(conn *net.UDPConn) error {
	rc, err := conn.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_TIMESTAMPNS, 1)
	}); err != nil {
		return err
	}
	return serr
}

// stampReader reads datagrams with their kernel receive time, expressed
// on a generator clock that counts from t0.
type stampReader struct {
	conn   *net.UDPConn
	t0Wall int64 // t0 as Unix ns: kernel stamps are CLOCK_REALTIME
	oob    []byte
}

func newStampReader(conn *net.UDPConn, t0 time.Time) (*stampReader, error) {
	if err := enableRxStamps(conn); err != nil {
		return nil, err
	}
	return &stampReader{conn: conn, t0Wall: t0.UnixNano(), oob: make([]byte, syscall.CmsgSpace(timespecLen))}, nil
}

// read returns the datagram's length and its arrival in ns since t0.
func (r *stampReader) read(buf []byte) (int, int64, error) {
	n, oobn, _, _, err := r.conn.ReadMsgUDPAddrPort(buf, r.oob)
	if err != nil {
		return 0, 0, err
	}
	at, err := rxStamp(r.oob[:oobn])
	if err != nil {
		return n, 0, err
	}
	return n, at - r.t0Wall, nil
}

// rxStamp extracts the SO_TIMESTAMPNS control message as Unix ns.
func rxStamp(oob []byte) (int64, error) {
	msgs, err := syscall.ParseSocketControlMessage(oob)
	if err != nil {
		return 0, err
	}
	for _, m := range msgs {
		if m.Header.Level == syscall.SOL_SOCKET && m.Header.Type == syscall.SCM_TIMESTAMPNS && len(m.Data) >= timespecLen {
			sec := int64(binary.NativeEndian.Uint64(m.Data))
			nsec := int64(binary.NativeEndian.Uint64(m.Data[8:]))
			return sec*1e9 + nsec, nil
		}
	}
	return 0, errNoStamp
}
