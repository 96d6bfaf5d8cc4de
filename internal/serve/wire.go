package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// Wire protocol: every message is one length-prefixed frame
//
//	[4-byte big-endian payload length][1-byte opcode][JSON body]
//
// (the length counts opcode + body).  The client sends a request frame
// and reads exactly one response frame; requests on one connection are
// served in order.  Frames beyond MaxFrame are rejected before any
// allocation, mirroring transport.MaxFrameSize's hostile-peer guard.

// MaxFrame bounds a wire frame's payload (opcode + JSON body).
const MaxFrame = 8 << 20

// Request opcodes.
const (
	opPredict byte = 'P' // predictReq  -> opOK predictResp
	opUpdate  byte = 'T' // updateReq   -> opOK updateResp (incremental absorb, installs version+1)
	opModels  byte = 'M' // empty       -> opOK []Info
	opStats   byte = 'S' // empty       -> opOK core.RunStats
	opHealth  byte = 'H' // empty       -> opOK Health
	opDrain   byte = 'D' // empty       -> opOK "draining", then server shutdown
	opAuth    byte = 'A' // authReq     -> opOK "ok" | opErr (required first frame when the server has an auth token)
)

// Response opcodes.
const (
	opOK      byte = 'K'
	opErr     byte = 'E' // body: JSON string with the error message
	opUnavail byte = 'U' // body: unavailResp — session down, back off and retry
)

// authReq is the opAuth body: the shared token the daemon was started
// with.  The wire carries it in the clear, so pair -auth with TLS
// anywhere a network path is untrusted.
type authReq struct {
	Token string `json:"token"`
}

type predictReq struct {
	Model      string      `json:"model"`
	Samples    [][]float64 `json:"samples"`
	DeadlineMs int64       `json:"deadline_ms,omitempty"`
}

type predictResp struct {
	Predictions []float64 `json:"predictions"`
	Version     int       `json:"version"`
}

// updateReq is the opUpdate body: appended aligned samples (flat feature
// rows in global column order, one label each) absorbed into the named
// model.  AddTrees sets the extra boosting rounds for GBDT absorbs
// (<= 0 selects 1; above core.MaxAddTrees the update is refused before any
// client starts); DT/RF absorbs refine leaves only and ignore it.
type updateReq struct {
	Model    string      `json:"model"`
	Samples  [][]float64 `json:"samples"`
	Labels   []float64   `json:"labels"`
	AddTrees int         `json:"add_trees,omitempty"`
}

// updateResp echoes the installed entry: the new version serves every
// prediction admitted after the install.
type updateResp struct {
	Version int  `json:"version"`
	Info    Info `json:"info"`
}

// unavailResp is the opUnavail body: the daemon's session is dead (a
// rebuild may be in flight) and the client should retry after the hint.
type unavailResp struct {
	RetryAfterMs int64 `json:"retry_after_ms"`
}

// writeFrame marshals v and writes one frame.
func writeFrame(w io.Writer, op byte, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if len(body)+1 > MaxFrame {
		return fmt.Errorf("serve: frame of %d bytes exceeds limit %d", len(body)+1, MaxFrame)
	}
	buf := make([]byte, 5+len(body))
	binary.BigEndian.PutUint32(buf[:4], uint32(1+len(body)))
	buf[4] = op
	copy(buf[5:], body)
	_, err = w.Write(buf)
	return err
}

// readFrame reads one frame and returns its opcode and JSON body.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 1 || n > MaxFrame {
		return 0, nil, fmt.Errorf("serve: frame length %d out of range", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return payload[0], payload[1:], nil
}
