// WebSocket publisher bridge: GET /feeds/{name}/publish upgrades to a
// WebSocket whose text messages are publisher wire frames (the same JSON
// objects POST /feeds/{name}/frames takes per line), admitted to the
// feed's ingest ring under its policy. A hand-rolled RFC 6455 server —
// the repository takes no dependencies, and the publisher side of the
// protocol (handshake, masked client frames, ping/pong, close) is small.
//
// Backpressure is the transport's: under the block policy a full ring
// stops this goroutine reading the socket, TCP flow control reaches the
// publisher, and the camera slows — no frames are lost and no buffer
// grows without bound.
package server

import (
	"bufio"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vmq/internal/stream"
)

// wsGUID is the protocol's fixed handshake salt (RFC 6455 §1.3).
const wsGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// wsMaxMessage bounds one message's reassembled payload: a published
// frame is a few KB of JSON; 1MB leaves two orders of magnitude of
// headroom while keeping a hostile peer from ballooning memory.
const wsMaxMessage = 1 << 20

// WebSocket opcodes.
const (
	wsOpCont   = 0x0
	wsOpText   = 0x1
	wsOpBinary = 0x2
	wsOpClose  = 0x8
	wsOpPing   = 0x9
	wsOpPong   = 0xA
)

// wsAcceptKey computes the Sec-WebSocket-Accept header value.
func wsAcceptKey(key string) string {
	h := sha1.Sum([]byte(key + wsGUID))
	return base64.StdEncoding.EncodeToString(h[:])
}

// isWSUpgrade reports whether the request asks for a WebSocket upgrade
// — how GET /v1/queries/{id}/results chooses between NDJSON and the
// message bridge.
func isWSUpgrade(r *http.Request) bool {
	return strings.EqualFold(r.Header.Get("Upgrade"), "websocket") &&
		headerContainsToken(r.Header.Get("Connection"), "upgrade")
}

// wsUpgrade performs the server side of the RFC 6455 handshake,
// hijacking the connection. On failure it has already answered the
// request with the error envelope and returns ok=false.
func wsUpgrade(w http.ResponseWriter, r *http.Request) (net.Conn, *bufio.Reader, bool) {
	if !isWSUpgrade(r) {
		httpError(w, http.StatusBadRequest, "bad_request", "websocket upgrade required")
		return nil, nil, false
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		httpError(w, http.StatusBadRequest, "bad_request", "missing Sec-WebSocket-Key")
		return nil, nil, false
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		httpError(w, http.StatusInternalServerError, "internal", "connection cannot be hijacked")
		return nil, nil, false
	}
	conn, rw, err := hj.Hijack()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "internal", "hijack: %v", err)
		return nil, nil, false
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + wsAcceptKey(key) + "\r\n\r\n"
	if _, err := rw.WriteString(resp); err != nil {
		conn.Close()
		return nil, nil, false
	}
	if err := rw.Flush(); err != nil {
		conn.Close()
		return nil, nil, false
	}
	return conn, rw.Reader, true
}

// handlePublishWS upgrades GET /feeds/{name}/publish and ingests one
// wire frame per text (or binary) message until the publisher closes,
// the feed drains, or a protocol error ends the connection.
func (s *Server) handlePublishWS(w http.ResponseWriter, r *http.Request) {
	f, err := s.feedByName(r.PathValue("name"))
	if err != nil {
		feedHTTPError(w, err)
		return
	}
	if f.push == nil {
		httpError(w, http.StatusConflict, "not_push_feed", "feed %q is not a push feed", f.name)
		return
	}
	conn, br, ok := wsUpgrade(w, r)
	if !ok {
		return
	}
	defer conn.Close()
	s.servePublisher(conn, br, f)
}

// serveResultsWS is the WebSocket form of the results stream: each
// event goes out as one text message, and the client sends
// {"ack":<seq>} messages back on the same connection — in-band
// acknowledgement with no extra round-trip endpoint. The stream ends
// with a close frame when the query's log closes, or when the client
// closes first.
func (s *Server) serveResultsWS(w http.ResponseWriter, r *http.Request, reg *Registration, from int64) {
	conn, br, ok := wsUpgrade(w, r)
	if !ok {
		return
	}
	defer conn.Close()
	reader := reg.ResultsFrom(from)
	defer reader.Detach()
	// Events and control replies (pongs, closes) come from different
	// goroutines; frame writes must not interleave.
	var wmu sync.Mutex
	writeFrame := func(op byte, payload []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		return wsWriteFrame(conn, op, payload)
	}
	// Server-side keepalive: ping every WSPingInterval and close the
	// connection when no client frame (pong or otherwise) lands within
	// two intervals. An idle stream stays open — the peer keeps ponging
	// — while a dead peer behind a silent TCP half-open is detected
	// within a bounded window instead of never.
	var lastPong atomic.Int64
	lastPong.Store(time.Now().UnixNano())
	if interval := s.cfg.WSPingInterval; interval > 0 {
		pingStop := make(chan struct{})
		defer close(pingStop)
		go func() {
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-pingStop:
					return
				case <-t.C:
					if time.Since(time.Unix(0, lastPong.Load())) > 2*interval {
						conn.Close() // pong deadline missed: dead peer, not idle stream
						return
					}
					if writeFrame(wsOpPing, []byte("vmq")) != nil {
						return
					}
				}
			}
		}()
	}
	// The client loop owns the read side: acks advance the cursor's
	// acknowledged position, pings are answered, and a close (or peer
	// loss) aborts the event loop's blocking read via done.
	done := make(chan struct{})
	go func() {
		defer close(done)
		wr := &wsReader{br: br}
		for {
			op, payload, err := wr.next()
			if err != nil {
				return
			}
			// Any frame proves the peer alive; the pinger's deadline only
			// fires on total silence.
			lastPong.Store(time.Now().UnixNano())
			switch op {
			case wsOpText, wsOpBinary:
				var msg struct {
					Ack *int64 `json:"ack"`
				}
				if err := json.Unmarshal(payload, &msg); err != nil || msg.Ack == nil {
					wmu.Lock()
					wsWriteClose(conn, 1007, `expected {"ack":<seq>}`)
					wmu.Unlock()
					return
				}
				reg.noteAck(reader.Ack(*msg.Ack))
			case wsOpPing:
				if writeFrame(wsOpPong, payload) != nil {
					return
				}
			case wsOpPong:
				// Liveness already noted above; nothing else to do.
			case wsOpClose:
				if len(payload) > 125 {
					payload = payload[:125]
				}
				wmu.Lock()
				_ = wsWriteFrame(conn, wsOpClose, payload)
				wmu.Unlock()
				return
			}
		}
	}()
	for {
		it, ok := reader.Next(done)
		if !ok {
			break
		}
		payload, err := marshalFinite(reg.itemEvent(it))
		if err != nil {
			break
		}
		if writeFrame(wsOpText, payload) != nil {
			break
		}
	}
	select {
	case <-done:
		// The client ended the conversation; its close was already
		// echoed.
	default:
		wmu.Lock()
		wsWriteClose(conn, 1000, "end of stream")
		wmu.Unlock()
	}
}

// headerContainsToken reports whether a comma-separated header value
// contains the token (Connection can be "keep-alive, Upgrade").
func headerContainsToken(header, token string) bool {
	for _, part := range strings.Split(header, ",") {
		if strings.EqualFold(strings.TrimSpace(part), token) {
			return true
		}
	}
	return false
}

// servePublisher runs the post-handshake message loop. This goroutine is
// the connection's only reader and writer, so pongs and the closing
// handshake need no write lock.
func (s *Server) servePublisher(conn net.Conn, br *bufio.Reader, f *feed) {
	wr := &wsReader{br: br}
	for {
		op, payload, err := wr.next()
		if err != nil {
			return // peer gone or protocol violation; nothing to answer
		}
		switch op {
		case wsOpText, wsOpBinary:
			var wf wireFrame
			if err := json.Unmarshal(payload, &wf); err != nil {
				wsWriteClose(conn, 1007, fmt.Sprintf("bad frame: %v", err))
				return
			}
			frame, err := wf.frame(f.profile)
			if err != nil {
				wsWriteClose(conn, 1007, err.Error())
				return
			}
			switch err := f.push.Publish(frame, nil); {
			case err == nil:
			case errors.Is(err, stream.ErrPushRejected):
				// The reject policy's answer is per-frame; the publisher
				// keeps the connection and decides whether to retry.
			case errors.Is(err, stream.ErrPushClosed):
				wsWriteClose(conn, 1001, "feed draining")
				return
			}
		case wsOpPing:
			if wsWriteFrame(conn, wsOpPong, payload) != nil {
				return
			}
		case wsOpPong:
			// Unsolicited pong: ignore.
		case wsOpClose:
			if len(payload) > 125 {
				payload = payload[:125]
			}
			_ = wsWriteFrame(conn, wsOpClose, payload)
			return
		}
	}
}

// wsReader reassembles the client's frames into messages. next returns
// the next complete data message (text/binary, continuation fragments
// joined) or the next control frame (ping/pong/close) — control frames
// may interleave a fragmented message (RFC 6455 §5.4), so the partial
// message survives across calls. Client frames must be masked (§5.1).
type wsReader struct {
	br     *bufio.Reader
	msgOp  byte
	msgBuf []byte
	inMsg  bool
}

func (r *wsReader) next() (op byte, payload []byte, err error) {
	for {
		fin, opcode, data, err := wsReadFrame(r.br)
		if err != nil {
			return 0, nil, err
		}
		switch {
		case opcode >= wsOpClose: // control frame: never fragmented
			if !fin {
				return 0, nil, errors.New("fragmented control frame")
			}
			return opcode, data, nil
		case opcode == wsOpCont:
			if !r.inMsg {
				return 0, nil, errors.New("continuation without a message")
			}
			r.msgBuf = append(r.msgBuf, data...)
		default: // text or binary
			if r.inMsg {
				return 0, nil, errors.New("new data frame inside a fragmented message")
			}
			r.inMsg, r.msgOp = true, opcode
			r.msgBuf = append(r.msgBuf, data...)
		}
		if len(r.msgBuf) > wsMaxMessage {
			return 0, nil, errors.New("message too large")
		}
		if r.inMsg && fin {
			msg := r.msgBuf
			r.msgBuf, r.inMsg = nil, false
			return r.msgOp, msg, nil
		}
	}
}

// wsReadFrame reads one raw frame and unmasks its payload.
func wsReadFrame(br *bufio.Reader) (fin bool, opcode byte, payload []byte, err error) {
	var hdr [2]byte
	if _, err = io.ReadFull(br, hdr[:]); err != nil {
		return
	}
	fin = hdr[0]&0x80 != 0
	if hdr[0]&0x70 != 0 {
		err = errors.New("reserved bits set")
		return
	}
	opcode = hdr[0] & 0x0F
	masked := hdr[1]&0x80 != 0
	if !masked {
		err = errors.New("unmasked client frame")
		return
	}
	length := uint64(hdr[1] & 0x7F)
	switch length {
	case 126:
		var ext [2]byte
		if _, err = io.ReadFull(br, ext[:]); err != nil {
			return
		}
		length = uint64(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err = io.ReadFull(br, ext[:]); err != nil {
			return
		}
		length = binary.BigEndian.Uint64(ext[:])
	}
	if length > wsMaxMessage {
		err = errors.New("frame too large")
		return
	}
	var mask [4]byte
	if _, err = io.ReadFull(br, mask[:]); err != nil {
		return
	}
	payload = make([]byte, length)
	if _, err = io.ReadFull(br, payload); err != nil {
		return
	}
	for i := range payload {
		payload[i] ^= mask[i%4]
	}
	return
}

// wsWriteFrame writes one unfragmented, unmasked frame (server frames
// are never masked).
func wsWriteFrame(w io.Writer, opcode byte, payload []byte) error {
	hdr := make([]byte, 0, 10)
	hdr = append(hdr, 0x80|opcode)
	switch n := len(payload); {
	case n < 126:
		hdr = append(hdr, byte(n))
	case n <= 0xFFFF:
		hdr = append(hdr, 126, byte(n>>8), byte(n))
	default:
		hdr = append(hdr, 127)
		var ext [8]byte
		binary.BigEndian.PutUint64(ext[:], uint64(n))
		hdr = append(hdr, ext[:]...)
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// wsWriteClose sends a close frame with a status code and reason.
func wsWriteClose(w io.Writer, code uint16, reason string) {
	if len(reason) > 123 {
		reason = reason[:123]
	}
	payload := make([]byte, 2+len(reason))
	binary.BigEndian.PutUint16(payload, code)
	copy(payload[2:], reason)
	_ = wsWriteFrame(w, wsOpClose, payload)
}
