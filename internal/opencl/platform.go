// Package opencl is a simulated OpenCL 2.1-style runtime mirroring the
// paper's implementation layer (§IV): platforms and devices, contexts,
// in-order command queues with profiling events, buffers with the
// map-versus-copy semantics of unified and discrete memory, and compute
// kernels built from neural networks (one kernel per layer,
// thread-per-node).
//
// Kernels execute the real tensor math on the host; the command queue
// charges each command's virtual time and energy through the device
// models of internal/device. The two OpenCL implementations of the paper
// — the Intel SDK for the Core CPU + HD Graphics and the NVIDIA CUDA
// 10.0 OpenCL — appear as two simulated platforms.
package opencl

import (
	"fmt"

	"bomw/internal/device"
	"bomw/internal/tensor"
)

// Platform groups the devices exposed by one OpenCL vendor runtime.
type Platform struct {
	Name    string
	Vendor  string
	Version string
	Devices []*ClDevice
}

// ClDevice is an OpenCL view of a simulated processor, carrying the host
// execution pool that actually runs the kernel math. The pool's work-group
// size follows §IV-B: 4096 work-items per group on CPUs, 256 on GPUs.
type ClDevice struct {
	Sim  *device.Device
	Pool *tensor.Pool
}

// Name returns the underlying device name.
func (d *ClDevice) Name() string { return d.Sim.Name() }

// Kind returns the underlying device kind.
func (d *ClDevice) Kind() device.Kind { return d.Sim.Kind() }

// UnifiedMemory reports whether the device shares physical memory with
// the host (CPU and iGPU; §II-A).
func (d *ClDevice) UnifiedMemory() bool { return d.Sim.Profile().PCIeGBs <= 0 }

// NewClDevice wraps a simulated device with a host pool sized per §IV-B.
func NewClDevice(sim *device.Device) *ClDevice {
	return &ClDevice{Sim: sim, Pool: tensor.NewPool(0, sim.Profile().WorkGroupSize)}
}

// DiscoverPlatforms arranges simulated devices into vendor platforms the
// way the paper's testbed exposes them: the Intel OpenCL runtime hosts
// the CPU and integrated GPU, the NVIDIA CUDA toolkit hosts discrete
// GPUs, and any other accelerator gets a generic platform.
func DiscoverPlatforms(sims ...*device.Device) []Platform {
	var intel, nvidia, other []*ClDevice
	for _, s := range sims {
		cd := NewClDevice(s)
		switch s.Kind() {
		case device.CPU, device.IntegratedGPU:
			intel = append(intel, cd)
		case device.DiscreteGPU:
			nvidia = append(nvidia, cd)
		default:
			other = append(other, cd)
		}
	}
	var out []Platform
	if len(intel) > 0 {
		out = append(out, Platform{
			Name: "Intel OpenCL", Vendor: "Intel(R) Corporation", Version: "OpenCL 2.1", Devices: intel,
		})
	}
	if len(nvidia) > 0 {
		out = append(out, Platform{
			Name: "NVIDIA CUDA", Vendor: "NVIDIA Corporation", Version: "OpenCL 1.2 CUDA 10.0", Devices: nvidia,
		})
	}
	if len(other) > 0 {
		out = append(out, Platform{
			Name: "Generic Accelerators", Vendor: "bomw", Version: "OpenCL 2.1", Devices: other,
		})
	}
	return out
}

// Context holds the devices a program is shared across.
type Context struct {
	Devices []*ClDevice
}

// CreateContext builds a context over the given devices.
func CreateContext(devices ...*ClDevice) (*Context, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("opencl: context needs at least one device")
	}
	return &Context{Devices: devices}, nil
}

// DeviceByName finds a context device.
func (c *Context) DeviceByName(name string) (*ClDevice, error) {
	for _, d := range c.Devices {
		if d.Name() == name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("opencl: device %q not in context", name)
}
