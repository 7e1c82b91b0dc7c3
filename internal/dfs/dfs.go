// Package dfs implements a simulated distributed file system standing
// in for HDFS. Files are split into fixed-size blocks backed by real
// local-disk files, and each block is written ReplicationFactor times
// to reproduce the write amplification of replicated storage — the
// cost structure that makes "load into HDFS" slower than "load into
// the memstore" in the paper's §6.2.4 experiment.
//
// Two row formats are supported, matching the paper's Hadoop
// baselines: Text (delimited, expensive to re-parse on every read)
// and Binary (SequenceFile-like, compact and cheap to decode).
package dfs

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"shark/internal/row"
)

// Format selects the on-disk row encoding.
type Format int

const (
	// Text is a '|'-delimited, one-row-per-line format.
	Text Format = iota
	// Binary is a length-prefixed binary format.
	Binary
)

// String names the format.
func (f Format) String() string {
	if f == Binary {
		return "binary"
	}
	return "text"
}

// Config controls the simulated file system.
type Config struct {
	// Dir is the local backing directory. Required.
	Dir string
	// BlockSize is the split size in bytes. Blocks map 1:1 to input
	// splits (and therefore to map tasks). Default 1 MiB.
	BlockSize int
	// ReplicationFactor is the write amplification applied to every
	// block, simulating HDFS replication. Default 3.
	ReplicationFactor int
}

func (c Config) withDefaults() Config {
	if c.BlockSize <= 0 {
		c.BlockSize = 1 << 20
	}
	if c.ReplicationFactor <= 0 {
		c.ReplicationFactor = 3
	}
	return c
}

// BlockMeta describes one block of a file.
type BlockMeta struct {
	Path  string // primary replica path on local disk
	Bytes int64
	Rows  int64
}

// FileMeta describes one DFS file.
type FileMeta struct {
	Name   string
	Format Format
	Schema row.Schema
	Blocks []BlockMeta
}

// TotalBytes returns the logical (single-replica) size of the file.
func (m *FileMeta) TotalBytes() int64 {
	var n int64
	for _, b := range m.Blocks {
		n += b.Bytes
	}
	return n
}

// TotalRows returns the number of rows in the file.
func (m *FileMeta) TotalRows() int64 {
	var n int64
	for _, b := range m.Blocks {
		n += b.Rows
	}
	return n
}

// FS is the simulated file system namespace.
type FS struct {
	cfg Config

	mu    sync.Mutex
	files map[string]*FileMeta
	seq   atomic.Int64

	// physicalBytes counts every byte written including replicas;
	// used by the loading-throughput experiment.
	physicalBytes atomic.Int64
}

// New creates a file system rooted at cfg.Dir (created if missing).
func New(cfg Config) (*FS, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("dfs: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("dfs: %w", err)
	}
	return &FS{cfg: cfg, files: make(map[string]*FileMeta)}, nil
}

// PhysicalBytesWritten returns the total bytes written including replicas.
func (fs *FS) PhysicalBytesWritten() int64 { return fs.physicalBytes.Load() }

// Stat returns the metadata for a file.
func (fs *FS) Stat(name string) (*FileMeta, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	m, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("dfs: no such file %q", name)
	}
	return m, nil
}

// Exists reports whether the file exists.
func (fs *FS) Exists(name string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[name]
	return ok
}

// List returns all file names with the given prefix, sorted.
func (fs *FS) List(prefix string) []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var out []string
	for name := range fs.files {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Delete removes a file and its backing blocks (including replicas).
func (fs *FS) Delete(name string) error {
	fs.mu.Lock()
	m, ok := fs.files[name]
	delete(fs.files, name)
	fs.mu.Unlock()
	if !ok {
		return nil
	}
	for _, b := range m.Blocks {
		os.Remove(b.Path)
		for r := 1; r < fs.cfg.ReplicationFactor; r++ {
			os.Remove(replicaPath(b.Path, r))
		}
	}
	return nil
}

// DeletePrefix removes every file under the prefix.
func (fs *FS) DeletePrefix(prefix string) {
	for _, name := range fs.List(prefix) {
		fs.Delete(name)
	}
}

func replicaPath(primary string, r int) string {
	return fmt.Sprintf("%s.rep%d", primary, r)
}

func (fs *FS) register(m *FileMeta) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[m.Name]; ok {
		return fmt.Errorf("dfs: file %q already exists", m.Name)
	}
	fs.files[m.Name] = m
	return nil
}

// Writer streams rows into a new DFS file, splitting into blocks and
// replicating each block as it is sealed.
type Writer struct {
	fs     *FS
	meta   *FileMeta
	closed atomic.Bool

	f   *os.File
	enc rowEncoder
	cur BlockMeta
}

type rowEncoder interface {
	Write(row.Row) error
	Flush() error
	BytesWritten() int64
}

// Create opens a writer for a new file.
func (fs *FS) Create(name string, format Format, schema row.Schema) (*Writer, error) {
	fs.mu.Lock()
	_, exists := fs.files[name]
	fs.mu.Unlock()
	if exists {
		return nil, fmt.Errorf("dfs: file %q already exists", name)
	}
	w := &Writer{fs: fs, meta: &FileMeta{Name: name, Format: format, Schema: schema.Clone()}}
	if err := w.openBlock(); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *Writer) openBlock() error {
	id := w.fs.seq.Add(1)
	path := filepath.Join(w.fs.cfg.Dir, fmt.Sprintf("blk-%08d", id))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dfs: %w", err)
	}
	w.f = f
	w.cur = BlockMeta{Path: path}
	if w.meta.Format == Binary {
		w.enc = row.NewBinaryWriter(f)
	} else {
		w.enc = row.NewTextWriter(f)
	}
	return nil
}

// Write appends one row.
func (w *Writer) Write(r row.Row) error {
	if err := w.enc.Write(r); err != nil {
		return err
	}
	w.cur.Rows++
	w.cur.Bytes = w.enc.BytesWritten()
	if w.cur.Bytes >= int64(w.fs.cfg.BlockSize) {
		if err := w.sealBlock(); err != nil {
			return err
		}
		return w.openBlock()
	}
	return nil
}

func (w *Writer) sealBlock() error {
	if err := w.enc.Flush(); err != nil {
		return err
	}
	w.cur.Bytes = w.enc.BytesWritten()
	if err := w.f.Close(); err != nil {
		return err
	}
	w.fs.physicalBytes.Add(w.cur.Bytes)
	// Replicate: real byte copies reproduce the write amplification
	// of HDFS's replication pipeline.
	for r := 1; r < w.fs.cfg.ReplicationFactor; r++ {
		if err := copyFile(w.cur.Path, replicaPath(w.cur.Path, r)); err != nil {
			return err
		}
		w.fs.physicalBytes.Add(w.cur.Bytes)
	}
	w.meta.Blocks = append(w.meta.Blocks, w.cur)
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// Close seals the final block and registers the file. The CAS latch
// makes it idempotent even under racing callers: exactly one Close
// runs the teardown, the rest return nil immediately.
func (w *Writer) Close() error {
	if !w.closed.CompareAndSwap(false, true) {
		return nil
	}
	if w.cur.Rows > 0 || len(w.meta.Blocks) == 0 {
		if err := w.sealBlock(); err != nil {
			return err
		}
	} else {
		w.enc.Flush()
		w.f.Close()
		os.Remove(w.cur.Path)
	}
	return w.fs.register(w.meta)
}

// RowReader iterates the rows of one block.
type RowReader interface {
	// Next returns the next row; io.EOF at end of block.
	Next() (row.Row, error)
	Close() error
}

type blockReader struct {
	f    *os.File
	next func() (row.Row, error)
}

func (b *blockReader) Next() (row.Row, error) { return b.next() }
func (b *blockReader) Close() error           { return b.f.Close() }

// OpenBlock opens block idx of the named file for reading. Every read
// re-parses from disk, reproducing the per-read deserialization cost
// of schema-on-read systems.
func (fs *FS) OpenBlock(name string, idx int) (RowReader, error) {
	m, f, err := fs.openBlock(name, idx)
	if err != nil {
		return nil, err
	}
	if m.Format == Binary {
		r := row.NewBinaryReader(f)
		return &blockReader{f: f, next: r.Next}, nil
	}
	r := row.NewTextReader(f, m.Schema)
	return &blockReader{f: f, next: r.Next}, nil
}

// ScanText calls fn with each line of text block idx of the named file,
// without its line end, and stops at fn's first error. The bytes are
// the block's own, read in place: a line is valid only until fn
// returns, so a caller that parses it straight into typed columns
// never copies it.
func (fs *FS) ScanText(name string, idx int, fn func(line []byte) error) error {
	m, f, err := fs.openBlock(name, idx)
	if err != nil {
		return err
	}
	defer f.Close()
	if m.Format != Text {
		return fmt.Errorf("dfs: %s is not a text file", name)
	}
	s := row.NewLineScanner(f)
	for s.Scan() {
		if err := fn(s.Bytes()); err != nil {
			return err
		}
	}
	return s.Err()
}

func (fs *FS) openBlock(name string, idx int) (*FileMeta, *os.File, error) {
	m, err := fs.Stat(name)
	if err != nil {
		return nil, nil, err
	}
	if idx < 0 || idx >= len(m.Blocks) {
		return nil, nil, fmt.Errorf("dfs: %s has no block %d", name, idx)
	}
	f, err := os.Open(m.Blocks[idx].Path)
	if err != nil {
		return nil, nil, fmt.Errorf("dfs: %w", err)
	}
	return m, f, nil
}

// ReadAll reads every row of a file (test/debug helper).
func (fs *FS) ReadAll(name string) ([]row.Row, error) {
	m, err := fs.Stat(name)
	if err != nil {
		return nil, err
	}
	var out []row.Row
	for i := range m.Blocks {
		r, err := fs.OpenBlock(name, i)
		if err != nil {
			return nil, err
		}
		for {
			rr, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				r.Close()
				return nil, err
			}
			out = append(out, rr)
		}
		r.Close()
	}
	return out, nil
}
