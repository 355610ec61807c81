library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

package fixed_refine_pkg is
  -- Shift a signed value left (positive k) or right (negative k).
  function f_shift(v : signed; k : integer) return signed;
  -- Round-half-up by dropping s fraction bits (s >= 0).
  function f_round(v : signed; s : natural) return signed;
  -- Truncate toward minus infinity by dropping s fraction bits.
  function f_floor(v : signed; s : natural) return signed;
  -- Round toward plus infinity by dropping s fraction bits.
  function f_ceil(v : signed; s : natural) return signed;
  -- Round toward zero by dropping s fraction bits.
  function f_trunc(v : signed; s : natural) return signed;
  -- Saturate to n bits.
  function f_saturate(v : signed; n : positive) return signed;
  -- Wrap (drop high bits) to n bits.
  function f_wrap(v : signed; n : positive) return signed;
end package fixed_refine_pkg;

package body fixed_refine_pkg is

  function f_shift(v : signed; k : integer) return signed is
  begin
    if k >= 0 then
      return shift_left(resize(v, v'length + k), k);
    else
      return shift_right(v, -k)(v'length - 1 downto 0);
    end if;
  end function;

  function f_round(v : signed; s : natural) return signed is
    variable w : signed(v'length downto 0);
  begin
    if s = 0 then
      return v;
    end if;
    w := resize(v, v'length + 1)
         + shift_left(to_signed(1, v'length + 1), s - 1);
    return w(w'length - 1 downto s);
  end function;

  function f_floor(v : signed; s : natural) return signed is
  begin
    if s = 0 then
      return v;
    end if;
    return v(v'length - 1 downto s);
  end function;

  function f_ceil(v : signed; s : natural) return signed is
  begin
    return -f_floor(-resize(v, v'length + 1), s);
  end function;

  function f_trunc(v : signed; s : natural) return signed is
  begin
    if v < 0 then
      return f_ceil(v, s);
    end if;
    return resize(f_floor(v, s), v'length + 1 - s);
  end function;

  function f_saturate(v : signed; n : positive) return signed is
    constant VMAX : signed(n - 1 downto 0) :=
      (n - 1 => '0', others => '1');
    constant VMIN : signed(n - 1 downto 0) :=
      (n - 1 => '1', others => '0');
  begin
    if v > resize(VMAX, v'length) then
      return VMAX;
    elsif v < resize(VMIN, v'length) then
      return VMIN;
    else
      return v(n - 1 downto 0);
    end if;
  end function;

  function f_wrap(v : signed; n : positive) return signed is
  begin
    return v(n - 1 downto 0);
  end function;

end package body fixed_refine_pkg;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.fixed_refine_pkg.all;

entity pulse_shaper is
  port (
    clk : in std_logic;
    rst : in std_logic;
    x : in signed(7 downto 0);
    f_v_6 : out signed(9 downto 0)
  );
end entity pulse_shaper;

architecture rtl of pulse_shaper is
  signal f_d_0 : signed(8 downto 0);
  signal f_d_4 : signed(8 downto 0);
  signal f_d_5 : signed(8 downto 0);
  signal f_d_3 : signed(8 downto 0);
  signal f_d_2 : signed(8 downto 0);
  signal f_d_1 : signed(8 downto 0);
  signal f_v_0 : signed(0 downto 0);
  signal f_c_0 : signed(19 downto 0);
  signal f_v_1 : signed(7 downto 0);
  signal f_c_1 : signed(21 downto 0);
  signal f_v_2 : signed(8 downto 0);
  signal f_c_2 : signed(23 downto 0);
  signal f_v_3 : signed(8 downto 0);
  signal f_c_3 : signed(23 downto 0);
  signal f_v_4 : signed(9 downto 0);
  signal f_c_4 : signed(21 downto 0);
  signal f_v_5 : signed(9 downto 0);
  signal f_c_5 : signed(19 downto 0);
  signal f_v_6_int : signed(9 downto 0);
  signal op_11 : signed(28 downto 0);
  signal op_12 : signed(32 downto 0);
  signal op_15 : signed(30 downto 0);
  signal op_16 : signed(31 downto 0);
  signal op_19 : signed(32 downto 0);
  signal op_20 : signed(33 downto 0);
  signal op_23 : signed(32 downto 0);
  signal op_24 : signed(33 downto 0);
  signal op_27 : signed(30 downto 0);
  signal op_28 : signed(33 downto 0);
  signal op_31 : signed(28 downto 0);
  signal op_32 : signed(33 downto 0);
begin
  op_11 <= resize(f_d_0 * f_c_0, 29);
  op_12 <= resize(f_shift(f_v_0, 31), 33) + resize(op_11, 33);
  op_15 <= resize(f_d_1 * f_c_1, 31);
  op_16 <= resize(f_shift(f_v_1, 19), 32) + resize(op_15, 32);
  op_19 <= resize(f_d_2 * f_c_2, 33);
  op_20 <= resize(f_shift(f_v_2, 21), 34) + resize(op_19, 34);
  op_23 <= resize(f_d_3 * f_c_3, 33);
  op_24 <= resize(f_shift(f_v_3, 23), 34) + resize(op_23, 34);
  op_27 <= resize(f_d_4 * f_c_4, 31);
  op_28 <= resize(f_shift(f_v_4, 23), 34) + resize(op_27, 34);
  op_31 <= resize(f_d_5 * f_c_5, 29);
  op_32 <= resize(f_shift(f_v_5, 23), 34) + resize(op_31, 34);
  f_v_0 <= f_saturate(resize(to_signed(0, 1), 2), 1);
  f_c_0 <= f_saturate(resize(f_round(signed'("100000010000011000100100110111010010111100011010101"), 31), 22), 20);
  f_v_1 <= f_saturate(resize(f_round(op_12, 19), 16), 8);
  f_c_1 <= f_saturate(resize(f_round(signed'("011010010111100011010100111111011111001110110110010001"), 32), 24), 22);
  f_v_2 <= f_saturate(resize(f_round(op_16, 21), 13), 9);
  f_c_2 <= f_saturate(resize(f_round(signed'("01111001110110110010001011010000111001010110000001"), 26), 26), 24);
  f_v_3 <= f_saturate(resize(f_round(op_20, 23), 13), 9);
  f_c_3 <= f_saturate(resize(f_round(signed'("01111001110110110010001011010000111001010110000001"), 26), 26), 24);
  f_v_4 <= f_saturate(resize(f_round(op_24, 23), 13), 10);
  f_c_4 <= f_saturate(resize(f_round(signed'("011010010111100011010100111111011111001110110110010001"), 32), 24), 22);
  f_v_5 <= f_saturate(resize(f_round(op_28, 23), 13), 10);
  f_c_5 <= f_saturate(resize(f_round(signed'("100000010000011000100100110111010010111100011010101"), 31), 22), 20);
  f_v_6_int <= f_saturate(resize(f_round(op_32, 23), 13), 10);
  f_v_6 <= f_v_6_int;

  registers : process (clk)
  begin
    if rising_edge(clk) then
      if rst = '1' then
        f_d_0 <= (others => '0');
        f_d_4 <= (others => '0');
        f_d_5 <= (others => '0');
        f_d_3 <= (others => '0');
        f_d_2 <= (others => '0');
        f_d_1 <= (others => '0');
      else
        f_d_0 <= f_saturate(resize(f_shift(x, 1), 10), 9);
        f_d_4 <= f_saturate(resize(f_d_3, 10), 9);
        f_d_5 <= f_saturate(resize(f_d_4, 10), 9);
        f_d_3 <= f_saturate(resize(f_d_2, 10), 9);
        f_d_2 <= f_saturate(resize(f_d_1, 10), 9);
        f_d_1 <= f_saturate(resize(f_d_0, 10), 9);
      end if;
    end if;
  end process;

end architecture rtl;
