// Package tcpnet implements the raft.Transport interface over real TCP
// sockets, letting replicas run as genuinely separate networked processes.
// Each message travels as one frame: the sender's name and the encoded
// message, each length-prefixed.
//
// tcpnet has no fault code of its own. Every endpoint sends through its
// directory's memnet.Network, whose fault filter — loss, delay, partitions,
// down nodes — decides before the socket write what reaches the wire, so
// both transports share one, and whose Stats count what the endpoints'
// inboxes took.
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"prognosticator/internal/memnet"
	"prognosticator/internal/value"
)

// maxField bounds each length-prefixed part of a frame; a longer one ends
// the connection. It is the message limit of the gob streams tcpnet used to
// write, so catch-up traffic that fitted then fits now.
const maxField = 1 << 30

// Register does nothing: messages travel as bytes, so there are no payload
// types to register. It stays for callers outside this module that still
// call it with raft.WireTypes.
func Register(...any) {}

// Directory maps endpoint names to dialable addresses. For single-process
// tests, NewDirectory + Listen fill it automatically; distributed
// deployments construct it from configuration.
type Directory struct {
	mu    sync.RWMutex
	addrs map[string]string
	net   *memnet.Network
}

// NewDirectory returns an empty directory whose endpoints send through a
// network without faults.
func NewDirectory() *Directory { return NewDirectoryOn(memnet.New(0)) }

// NewDirectoryOn returns an empty directory whose endpoints send through
// net: its faults apply to their messages, and its Stats count them.
func NewDirectoryOn(net *memnet.Network) *Directory {
	return &Directory{addrs: map[string]string{}, net: net}
}

// Set records the address of a named endpoint.
func (d *Directory) Set(name, addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.addrs[name] = addr
}

// Lookup resolves a name.
func (d *Directory) Lookup(name string) (string, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	a, ok := d.addrs[name]
	return a, ok
}

// Endpoint is one TCP-backed transport endpoint. It implements
// raft.Transport.
type Endpoint struct {
	name  string
	dir   *Directory
	ln    net.Listener
	inbox chan memnet.Message

	mu     sync.Mutex
	out    map[string]net.Conn // the connection each peer is written on
	conns  map[net.Conn]bool   // every open connection, dialed or accepted
	closed bool
	wg     sync.WaitGroup
}

// Listen binds a new endpoint on addr ("127.0.0.1:0" for an ephemeral port)
// and records its actual address in the directory.
func Listen(name, addr string, dir *Directory) (*Endpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", name, err)
	}
	e := &Endpoint{
		name: name, dir: dir, ln: ln,
		inbox: make(chan memnet.Message, 1024),
		out:   map[string]net.Conn{},
		conns: map[net.Conn]bool{},
	}
	dir.Set(name, ln.Addr().String())
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// Addr returns the endpoint's bound address.
func (e *Endpoint) Addr() string { return e.ln.Addr().String() }

// Inbox implements raft.Transport.
func (e *Endpoint) Inbox() <-chan memnet.Message { return e.inbox }

// Send implements raft.Transport: the message passes the directory's fault
// filter, then is written to the socket with datagram semantics — dial on
// demand, drop on any error (Raft tolerates loss).
func (e *Endpoint) Send(to string, msg []byte) {
	e.dir.net.Send(memnet.Message{From: e.name, To: to, Payload: msg}, e.write)
}

// write puts msg on the wire as one frame. A connection the write fails on
// is closed and forgotten, so the next message re-dials.
func (e *Endpoint) write(msg memnet.Message) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	conn := e.out[msg.To]
	if conn == nil {
		addr, found := e.dir.Lookup(msg.To)
		if !found {
			return
		}
		var err error
		if conn, err = net.Dial("tcp", addr); err != nil {
			return
		}
		e.out[msg.To] = conn
		e.conns[conn] = true
	}
	head := binary.AppendUvarint(value.AppendBytes(nil, e.name), uint64(len(msg.Payload)))
	frame := net.Buffers{head, msg.Payload}
	if _, err := frame.WriteTo(conn); err != nil {
		delete(e.out, msg.To)
		e.dropLocked(conn)
	}
}

// dropLocked closes conn and forgets it; e.mu must be held.
func (e *Endpoint) dropLocked(conn net.Conn) {
	_ = conn.Close()
	delete(e.conns, conn)
}

// Close shuts the endpoint down.
func (e *Endpoint) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	_ = e.ln.Close()
	for c := range e.conns {
		_ = c.Close()
	}
	e.mu.Unlock()
	e.wg.Wait()
}

func (e *Endpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			_ = conn.Close()
			return
		}
		e.conns[conn] = true
		e.mu.Unlock()
		e.wg.Add(1)
		go e.readLoop(conn)
	}
}

// readLoop delivers the frames arriving on conn until it breaks. A full
// inbox drops, as memnet's does: transports are lossy by contract, Raft
// retries, and the network counts the drop as DroppedOverflow.
func (e *Endpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()
	r := bufio.NewReader(conn)
	for {
		from, err := readField(r)
		var payload []byte
		if err == nil {
			payload, err = readField(r)
		}
		if err != nil {
			e.mu.Lock()
			e.dropLocked(conn)
			e.mu.Unlock()
			return
		}
		e.dir.net.Deliver(e.inbox, memnet.Message{From: string(from), To: e.name, Payload: payload})
	}
}

// readField reads one length-prefixed part of a frame into a buffer of its
// own.
func readField(r *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > maxField {
		return nil, fmt.Errorf("tcpnet: frame field of %d bytes", n)
	}
	b := make([]byte, n)
	_, err = io.ReadFull(r, b)
	return b, err
}
