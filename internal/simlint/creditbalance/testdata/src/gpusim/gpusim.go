// Package gpusim is a golden-test fake of the staging-pool surface the
// creditbalance analyzer roots on: BufferPool.Get/Put and
// GPUDevice.Malloc/Reserve/Free with the real module's shapes.
package gpusim

type Clock struct{ Now int64 }

type Buffer struct {
	Data []byte
}

type BufferPool struct{ free []*Buffer }

func (p *BufferPool) Get(clk *Clock, n int) *Buffer { return &Buffer{Data: make([]byte, n)} }

func (p *BufferPool) Put(b *Buffer) {}

type GPUDevice struct{ used int64 }

func (d *GPUDevice) Malloc(clk *Clock, n int) *Buffer { return &Buffer{Data: make([]byte, n)} }

func (d *GPUDevice) Reserve(clk *Clock, n int) *Buffer { return &Buffer{} }

func (d *GPUDevice) Free(clk *Clock, b *Buffer) {}
