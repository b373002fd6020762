use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A complex number with `f32` components, used by the FFT reference model
/// and by the accelerator's functional butterfly-unit model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real component.
    pub re: f32,
    /// Imaginary component.
    pub im: f32,
}

impl Complex {
    /// Creates a complex number from real and imaginary parts.
    pub fn new(re: f32, im: f32) -> Self {
        Self { re, im }
    }

    /// The additive identity.
    pub(crate) fn zero() -> Self {
        Self { re: 0.0, im: 0.0 }
    }

    /// `e^{i theta}` on the unit circle.
    pub fn from_polar(theta: f32) -> Self {
        Self { re: theta.cos(), im: theta.sin() }
    }

    /// Complex conjugate.
    pub(crate) fn conj(self) -> Self {
        Self { re: self.re, im: -self.im }
    }

    /// Squared magnitude.
    pub(crate) fn norm_sqr(self) -> f32 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    pub fn abs(self) -> f32 {
        self.norm_sqr().sqrt()
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex { re: self.re + rhs.re, im: self.im + rhs.im }
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex { re: self.re - rhs.re, im: self.im - rhs.im }
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex { re: -self.re, im: -self.im }
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex { re: self.re * rhs.re - self.im * rhs.im, im: self.re * rhs.im + self.im * rhs.re }
    }
}

impl Mul<f32> for Complex {
    type Output = Complex;
    fn mul(self, rhs: f32) -> Complex {
        Complex { re: self.re * rhs, im: self.im * rhs }
    }
}

impl From<f32> for Complex {
    fn from(re: f32) -> Self {
        Complex { re, im: 0.0 }
    }
}

impl std::fmt::Display for Complex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplication_matches_definition() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        let c = a * b;
        assert!((c.re - 5.0).abs() < 1e-6);
        assert!((c.im - 5.0).abs() < 1e-6);
    }

    #[test]
    fn conjugate_and_norm() {
        let a = Complex::new(3.0, 4.0);
        assert_eq!(a.conj().im, -4.0);
        assert!((a.abs() - 5.0).abs() < 1e-6);
        let prod = a * a.conj();
        assert!((prod.re - 25.0).abs() < 1e-5);
        assert!(prod.im.abs() < 1e-5);
    }

    #[test]
    fn polar_on_unit_circle() {
        let w = Complex::from_polar(std::f32::consts::PI / 2.0);
        assert!(w.re.abs() < 1e-6);
        assert!((w.im - 1.0).abs() < 1e-6);
    }
}
